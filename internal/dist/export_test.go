package dist

import (
	"io"
	"os"
	"testing"
	"time"
)

// SetJobTimeout shortens the hang timeout for the rest of t.
func SetJobTimeout(t *testing.T, d time.Duration) {
	old := jobTimeout
	jobTimeout = d
	t.Cleanup(func() { jobTimeout = old })
}

// FaultyWorkerMain is WorkerMain behind a fault hook, the test binary's
// worker mode for the chaos tests. It relays the coordinator's frames to
// WorkerMain, counting job frames; on the (after+1)-th the process that
// first creates the file token faults: it exits with status 3 before any
// reply, mid-shard, or with hang set sits on the job until the
// coordinator's timeout kills it. The token is created with O_EXCL, so
// exactly one process of a run faults and its replacement does not; an
// empty token makes every process fault.
func FaultyWorkerMain(r io.Reader, w io.Writer, token string, after int, hang bool) error {
	pr, pw := io.Pipe()
	go func() {
		for jobs := 0; ; {
			typ, payload, err := readFrame(r)
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if typ == frameJob {
				if jobs == after && (token == "" || claim(token)) {
					if hang {
						time.Sleep(24 * time.Hour)
					}
					os.Exit(3)
				}
				jobs++
			}
			if err := writeFrame(pw, typ, payload); err != nil {
				return
			}
		}
	}()
	return WorkerMain(pr, w)
}

// claim reports whether this process created token.
func claim(token string) bool {
	f, err := os.OpenFile(token, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	return f.Close() == nil
}

// Package faultfs is a deterministic fault-injecting file system for
// the pipeline's readers. A fault plan — explicit, or drawn
// reproducibly from a seed — schedules IO faults at chosen byte
// offsets of each opened file: transient EAGAIN-class errors, short
// reads, injected latency, and hard truncation. Reads are split so
// every fault lands exactly at its offset, and transient faults leave
// the stream position unmoved, so a reader that retries them observes
// exactly the bytes a fault-free reader would.
//
// The package is the engine of the chaos-differential harness: runs
// under a transient-only plan must be bit-identical to clean runs,
// runs under a truncating plan must fail with a path+offset error, and
// neither may leak goroutines or temp files. It is test support: the
// product never imports it, and a run's Stats carry no count of
// injected faults.
package faultfs

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"assocmine/internal/hashing"
)

// Kind selects the fault an Event injects.
type Kind int

const (
	// Transient fails the read reaching the offset once with an
	// EAGAIN-class error (Temporary() == true); the retried read
	// proceeds with the stream position unmoved.
	Transient Kind = iota
	// ShortRead caps the read reaching the offset at one byte.
	ShortRead
	// Latency sleeps Delay (DefaultLatency when zero) before the read
	// reaching the offset proceeds.
	Latency
	// Truncate ends the file at the offset: every read at or past it
	// returns io.EOF forever, simulating a file shorter than its
	// header claims. Unlike the other kinds it is permanent.
	Truncate
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case ShortRead:
		return "short-read"
	case Latency:
		return "latency"
	case Truncate:
		return "truncate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// DefaultLatency is the sleep of a Latency event with zero Delay.
const DefaultLatency = 100 * time.Microsecond

// Event is one scheduled fault. It fires when a read first reaches
// Offset; reads spanning the offset are split so the fault lands
// exactly there.
type Event struct {
	Offset int64
	Kind   Kind
	Delay  time.Duration // Latency only
}

// ErrTransient matches (via errors.Is) every injected transient fault.
var ErrTransient = errors.New("faultfs: injected transient fault")

// transientError is the injected transient failure: it advertises
// Temporary() == true and unwraps to both ErrTransient and
// syscall.EAGAIN, which is what retrying readers classify on.
type transientError struct{ off int64 }

func (e *transientError) Error() string {
	return fmt.Sprintf("%v at byte %d (%v)", ErrTransient, e.off, syscall.EAGAIN)
}

func (e *transientError) Temporary() bool { return true }

func (e *transientError) Unwrap() []error { return []error{ErrTransient, syscall.EAGAIN} }

// FS wraps an inner file system (the OS when nil), injecting the
// faults Plan schedules for each (path, nth open). It implements the
// matrix package's FS seam; the faults it injected are reported by
// FaultsInjected, which tests read directly (a run reports only the
// retries they cost, Stats.IORetries). Safe for concurrent opens and
// reads of distinct files.
type FS struct {
	// Inner opens the real files; nil means the operating system.
	Inner interface {
		Open(path string) (io.ReadCloser, error)
	}
	// Plan returns the fault schedule for the open-th open of path
	// (0-based). nil — or a nil schedule — means no faults for that
	// open. Events may be listed in any order. See Seeded for a
	// reproducible pseudo-random plan.
	Plan func(path string, open int) []Event
	// OpenErr, when non-nil, may fail the open itself (nil return
	// means success); transient open errors exercise the open-retry
	// path of hardened readers.
	OpenErr func(path string, open int) error

	mu     sync.Mutex
	opens  map[string]int
	faults atomic.Int64
}

// Open implements the FS seam.
func (f *FS) Open(path string) (io.ReadCloser, error) {
	f.mu.Lock()
	if f.opens == nil {
		f.opens = make(map[string]int)
	}
	open := f.opens[path]
	f.opens[path]++
	f.mu.Unlock()
	if f.OpenErr != nil {
		if err := f.OpenErr(path, open); err != nil {
			f.faults.Add(1)
			return nil, err
		}
	}
	inner := f.Inner
	var (
		file io.ReadCloser
		err  error
	)
	if inner == nil {
		file, err = os.Open(path)
	} else {
		file, err = inner.Open(path)
	}
	if err != nil {
		return nil, err
	}
	var events []Event
	if f.Plan != nil {
		events = append(events, f.Plan(path, open)...)
		sort.SliceStable(events, func(a, b int) bool { return events[a].Offset < events[b].Offset })
	}
	return &reader{f: file, events: events, faults: &f.faults}, nil
}

// FaultsInjected returns how many faults this FS has injected so far.
// Safe for concurrent use.
func (f *FS) FaultsInjected() int64 { return f.faults.Load() }

// Opens returns how many times path has been opened.
func (f *FS) Opens(path string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.opens[path]
}

// TransientOpens returns an OpenErr failing the first n opens of every
// path transiently.
func TransientOpens(n int) func(path string, open int) error {
	return func(_ string, open int) error {
		if open < n {
			return &transientError{off: -1}
		}
		return nil
	}
}

// reader injects the scheduled events into one file's read stream.
type reader struct {
	f         io.ReadCloser
	events    []Event // sorted by offset
	next      int
	off       int64
	truncated bool
	faults    *atomic.Int64
}

func (r *reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return r.f.Read(p)
	}
	// Fire every event scheduled at or before the current offset.
	for r.next < len(r.events) {
		ev := r.events[r.next]
		if ev.Offset > r.off {
			break
		}
		switch ev.Kind {
		case Transient:
			r.next++
			r.faults.Add(1)
			return 0, &transientError{off: r.off}
		case Latency:
			r.next++
			r.faults.Add(1)
			d := ev.Delay
			if d <= 0 {
				d = DefaultLatency
			}
			time.Sleep(d)
		case ShortRead:
			r.next++
			r.faults.Add(1)
			p = p[:1]
		case Truncate:
			if !r.truncated {
				r.truncated = true
				r.faults.Add(1)
			}
			return 0, io.EOF
		default:
			r.next++
		}
	}
	// Split the read so the next event fires exactly at its offset.
	if r.next < len(r.events) {
		if room := r.events[r.next].Offset - r.off; int64(len(p)) > room {
			p = p[:room]
		}
	}
	n, err := r.f.Read(p)
	r.off += int64(n)
	return n, err
}

func (r *reader) Close() error { return r.f.Close() }

// Options shapes the Seeded plan generator.
type Options struct {
	// MeanGap approximates the bytes between injected faults;
	// default 4096.
	MeanGap int64
	// Kinds are the fault kinds drawn from; default Transient,
	// ShortRead and Latency — every kind a retrying reader absorbs
	// without observable effect.
	Kinds []Kind
	// MaxLatency bounds injected sleeps; default 200µs.
	MaxLatency time.Duration
	// MaxBytes bounds the file region faults are drawn in;
	// default 1 MiB.
	MaxBytes int64
}

// Seeded returns a Plan drawing a reproducible schedule for every
// (path, open) pair: the same seed, path and open index always produce
// the same events, so a run under the plan is a pure function of
// (data, seed) — the property the chaos-differential harness relies
// on.
func Seeded(seed uint64, opts Options) func(path string, open int) []Event {
	gap := opts.MeanGap
	if gap <= 0 {
		gap = 4096
	}
	kinds := opts.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{Transient, ShortRead, Latency}
	}
	maxLatency := opts.MaxLatency
	if maxLatency <= 0 {
		maxLatency = 200 * time.Microsecond
	}
	maxBytes := opts.MaxBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	return func(path string, open int) []Event {
		h := fnv.New64a()
		h.Write([]byte(path))
		rng := hashing.NewSplitMix64(seed ^ h.Sum64() ^ (uint64(open)+1)*0x9e3779b97f4a7c15)
		var events []Event
		for off := int64(0); ; {
			off += 1 + int64(rng.Intn(int(2*gap)))
			if off >= maxBytes {
				return events
			}
			ev := Event{Offset: off, Kind: kinds[rng.Intn(len(kinds))]}
			if ev.Kind == Latency {
				ev.Delay = time.Duration(1 + rng.Intn(int(maxLatency)))
			}
			events = append(events, ev)
		}
	}
}

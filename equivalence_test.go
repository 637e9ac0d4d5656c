package assocmine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"assocmine/internal/dist"
	"assocmine/internal/faultfs"
	"assocmine/internal/matrix"
	"assocmine/internal/measures"
	"assocmine/internal/minhash"
	"assocmine/internal/obs"
	"assocmine/internal/rules"
	"assocmine/internal/testutil"
)

// The equivalence matrix. Every run is a pure function of (data,
// Config), so the three-phase template must give the same answer
// wherever the data sits and whoever executes the phases: one cell is
// one (fixture, scheme) run under one choice of executor, file format,
// workers, memory budget, fault plan and window, and its single
// assertion is that it equals the oracle — the in-memory run on one
// worker with no budget and no faults, itself held to its candidates
// counted straight from the fixture's columns — pairs bit for bit and
// every Stats field by reflection, except the fields that describe the
// schedule rather than the answer. Those are checked by per-axis
// predicates instead — phase 3's kernel among them: each cell must have
// verified with the kernel AutoPack chooses for its candidates and
// budget — and by the cell's twins: the runs that differ from it only
// in an axis that must not change the schedule either.
//
// Each executor sits behind one adapter, which names the Stats fields it
// cannot reproduce. The cells run as subtests of a handful of top-level
// tests whose names, and subtest paths, are those of the per-driver
// harnesses the matrix replaced, so their test ids stay stable; the
// cells no such harness ran are under TestEquivalenceMatrix. For the
// same reason a cell path still ends in "scalar" or "packed" where the
// matrix once forced a kernel: each such pair now reaches its kernel
// through the input alone (steer).

// scheduleFields are the Stats fields that depend on how a run was
// executed, not on what it mined: durations, worker budgets, shard
// counts, spill and packed work, and I/O volume and retries.
// check compares every other field, so a field added to Stats later is
// compared unless it is named here.
var scheduleFields = []string{
	"SignatureTime", "CandidateTime", "VerifyTime",
	"SignatureWorkers", "CandidateWorkers", "VerifyWorkers",
	"ShardsStreamed", "SpillRuns", "SpillBytes",
	"PackedWords", "PackedBatches",
	"BytesRead", "IORetries",
}

// cell is one run of the matrix.
type cell struct {
	group string // the top-level test the cell runs under
	name  string // its '/'-separated subtest path

	fix  string // fixtures key
	cfg  Config // the scheme: algorithm, parameters and Window
	exec *executor

	format  string // file extension the executor reads, "" for none
	workers int
	budget  int64 // bytes, or belowArena or atArena until check resolves it
	faults  bool  // open the file through a transient fault plan
	ctx     bool  // attach a live Context

	chunk     int  // incremental: rows per AppendRows call; 0 catches up from files
	snapshot  bool // incremental: a Save/LoadIngest round trip halfway
	roundTrip bool // resident: query a sketch restored from an AIN1 snapshot
}

// config is the cell's Config: the scheme under the cell's axes.
func (c cell) config() Config {
	cfg := c.cfg
	cfg.Workers, cfg.MemoryBudget = c.workers, c.budget
	if c.ctx {
		cfg.Context = context.Background()
	}
	return cfg
}

// Budgets a cell names by its candidates' arena — their distinct columns
// as ⌈n/64⌉-word bitmaps — which check resolves to bytes.
const (
	belowArena = -1 // a byte under the arena: AutoPack declines it
	atArena    = -2 // the arena itself: AutoPack packs under it
)

// steer is the budget of the cell of a scalar/packed pair named k whose
// budget would otherwise be b: the scalar cell keeps b, or without one
// runs a byte under its arena; the packed cell runs without a budget, or
// at its arena where b is set. A budget is the only lever a run has on
// its kernel, and a packed cell still counts scalar when its scheme
// yields fewer candidates than AutoPack packs.
func steer(k string, b int64) int64 {
	switch {
	case k == "scalar" && b == 0:
		return belowArena
	case k == "packed" && b > 0:
		return atArena
	}
	return b
}

// executor is the adapter of one way to run the template.
type executor struct {
	name string
	// streams: the executor's own run reads a file.
	streams bool
	// splits: phase 3 verifies the candidates in parts — a band's fresh
	// pairs, a worker's range — each choosing its own kernel.
	splits bool
	// cannot names the Stats fields the executor does not account, with
	// the reason; check compares none of them.
	cannot map[string]string
	// run mines the cell under cfg, the cell's Config with hooks attached.
	run func(t *testing.T, e *env, c cell, cfg Config) *Result
	// expect turns the oracle's Stats into what the executor accounts;
	// nil means unchanged.
	expect func(t *testing.T, e *env, c cell, oracle Stats) Stats
}

var (
	memoryExec = &executor{
		name: "memory",
		run: func(t *testing.T, e *env, c cell, cfg Config) *Result {
			return mustRun(t)(SimilarPairs(e.data(t, c.fix), cfg))
		},
	}
	streamExec = &executor{
		name:    "stream",
		streams: true,
		run: func(t *testing.T, e *env, c cell, cfg Config) *Result {
			return mustRun(t)(e.open(t, c).SimilarPairs(cfg))
		},
	}
	residentExec = &executor{
		name: "resident",
		run: func(t *testing.T, e *env, c cell, cfg Config) *Result {
			return mustRun(t)(SimilarPairsWith(e.data(t, c.fix), e.resident(t, c), cfg))
		},
		expect: lessSketchPhase,
	}
	incrementalExec = &executor{
		name: "incremental",
		run: func(t *testing.T, e *env, c cell, cfg Config) *Result {
			return mustRun(t)(SimilarPairsWith(e.data(t, c.fix), ingested(t, e, c), cfg))
		},
		expect: lessSketchPhase,
	}
	progressiveExec = &executor{
		name:   "progressive",
		splits: true,
		cannot: map[string]string{
			"DataPasses":  "each band with fresh candidates is verified by its own pass",
			"RowsScanned": "each band with fresh candidates is verified by its own pass",
		},
		run: func(t *testing.T, e *env, c cell, cfg Config) *Result {
			res := mustRun(t)(ProgressiveSimilarPairs(e.data(t, c.fix), cfg, func(Progress) bool { return true }))
			if w := int64(cfg.Window); w > 0 && res.Stats.RowsScanned%w != 0 {
				t.Errorf("RowsScanned = %d, not whole passes over the %d-row window", res.Stats.RowsScanned, w)
			}
			return res
		},
	}
	distExec = &executor{
		name:   "dist",
		splits: true,
		cannot: map[string]string{
			"DataPasses":  "the workers' reads never cross the pipe",
			"RowsScanned": "the workers' reads never cross the pipe",
		},
		run: runDist,
	}
)

func mustRun(t *testing.T) func(*Result, error) *Result {
	return func(res *Result, err error) *Result {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// agreements is Σ C(s, 2) over the runs of s columns sharing a value in
// a signature row: the pairs of columns agreeing there, over every row.
func agreements(sig *minhash.Signatures) int64 {
	var n int64
	for l := range sig.K {
		runs := make(map[uint64]int64)
		for _, v := range sig.Vals[l*sig.M : (l+1)*sig.M] {
			if v != minhash.Empty {
				n += runs[v]
				runs[v]++
			}
		}
	}
	return n
}

// lessSketchPhase is what a query answered from a precomputed sketch
// accounts: the oracle less its signature phase, as a SkipVerify run of
// the same scheme measures it.
func lessSketchPhase(t *testing.T, e *env, c cell, oracle Stats) Stats {
	sigOnly := c
	sigOnly.cfg.SkipVerify = true
	phase1 := e.oracle(t, sigOnly).Stats
	oracle.SignatureCells = 0
	oracle.DataPasses -= phase1.DataPasses
	oracle.RowsScanned -= phase1.RowsScanned
	return oracle
}

// env holds what the cells of one top-level test share: the files they
// read. Datasets and oracle results are shared by the whole package.
type env struct {
	dir   string
	files map[string]string
}

var shared = struct {
	sync.Mutex
	data    map[string]*Dataset
	oracles map[string]*Result
	cands   map[string]candidates
}{data: map[string]*Dataset{}, oracles: map[string]*Result{}, cands: map[string]candidates{}}

// data returns fixture fix, generating it once per test binary.
func (e *env) data(t *testing.T, fix string) *Dataset {
	t.Helper()
	shared.Lock()
	defer shared.Unlock()
	d, ok := shared.data[fix]
	if !ok {
		var err error
		if d, err = fixtures[fix](); err != nil {
			t.Fatal(err)
		}
		shared.data[fix] = d
	}
	return d
}

// file returns the path of fixture fix saved in format ext.
func (e *env) file(t *testing.T, fix, ext string) string {
	t.Helper()
	key := fix + ext
	p, ok := e.files[key]
	if !ok {
		dir := filepath.Join(e.dir, key)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		p = saveDataset(t, e.data(t, fix), dir, ext)
		e.files[key] = p
	}
	return p
}

// open opens the cell's file, through a transient fault plan (and a
// transiently failing first open) when the cell sets faults.
func (e *env) open(t *testing.T, c cell) *FileDataset {
	t.Helper()
	path := e.file(t, c.fix, c.format)
	if !c.faults {
		fd, err := OpenFileDataset(path)
		if err != nil {
			t.Fatal(err)
		}
		return fd
	}
	fd, err := openFileDataset(&faultfs.FS{Plan: transientPlan(97), OpenErr: faultfs.TransientOpens(1)}, path)
	if err != nil {
		t.Fatalf("open through faulty FS: %v", err)
	}
	return fd
}

// oracle is the cell's scheme mined in memory on one worker with no
// budget and no faults. Unless it skips verification, its pairs and
// their Similarity bits must be the reference count of its candidates.
func (e *env) oracle(t *testing.T, c cell) *Result {
	t.Helper()
	key := fmt.Sprintf("%s %+v", c.fix, c.cfg)
	shared.Lock()
	res, ok := shared.oracles[key]
	shared.Unlock()
	if ok {
		return res
	}
	cfg := c.cfg
	cfg.Workers = 1
	res = mustRun(t)(SimilarPairs(e.data(t, c.fix), cfg))
	if cfg.Algorithm == MinHash && cfg.Window == 0 {
		// Row-Sorting's work is one increment per agreement, which every
		// executor's CandidateIncrements is then held to.
		sig, err := ComputeSignatures(e.data(t, c.fix), cfg.K, cfg.Seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.CandidateIncrements, agreements(sig.sig); got != want {
			t.Fatalf("the oracle made %d increments, its signatures hold %d agreements", got, want)
		}
	}
	if !cfg.SkipVerify {
		ref := e.candidates(t, c).ref
		if len(res.Pairs) != len(ref) {
			t.Fatalf("the oracle verified %d pairs, the reference count %d", len(res.Pairs), len(ref))
		}
		for _, p := range res.Pairs {
			if s, ok := ref[[2]int{p.I, p.J}]; !ok || s != p.Similarity {
				t.Fatalf("the oracle's %+v: the reference count has %v (%v)", p, s, ok)
			}
		}
	}
	shared.Lock()
	shared.oracles[key] = res
	shared.Unlock()
	return res
}

// candidates is what phase 3 is handed for a scheme: the length of its
// candidate list, the bytes its arena takes, and the reference — every
// candidate counted straight from the fixture's columns (over the
// window's rows when the scheme has one) and scored by the scheme's
// measure of measures.Counts, the Jaccard similarity or, for Rules, the
// confidence: the survivors' scores by pair, with no kernel involved.
type candidates struct {
	n     int
	arena int64
	ref   map[[2]int]float64
}

// candidates returns the candidates of c's scheme: the pairs of its
// SkipVerify oracle.
func (e *env) candidates(t *testing.T, c cell) candidates {
	t.Helper()
	key := fmt.Sprintf("%s %+v", c.fix, c.cfg)
	shared.Lock()
	ci, ok := shared.cands[key]
	shared.Unlock()
	if ok {
		return ci
	}
	skip := c
	skip.cfg.SkipVerify = true
	cand := e.oracle(t, skip).Pairs
	m := e.data(t, c.fix).Matrix()
	n := m.NumRows()
	from := 0
	if w := c.cfg.Window; w > 0 {
		from = max(0, n-w)
	}
	rows := func(c int) []int32 {
		col := m.Column(c)
		return col[sort.Search(len(col), func(i int) bool { return int(col[i]) >= from }):]
	}
	measure := measures.Counts.Jaccard
	if c.cfg.Algorithm == Rules {
		measure = rules.Confidence
	}
	ci = candidates{n: len(cand), ref: map[[2]int]float64{}}
	distinct := map[int]bool{}
	for _, p := range cand {
		distinct[p.I], distinct[p.J] = true, true
		a, b := rows(p.I), rows(p.J)
		inter := 0
		for i, j := 0, 0; i < len(a) && j < len(b); {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				inter, i, j = inter+1, i+1, j+1
			}
		}
		if len(a)+len(b) == inter {
			continue // an empty union scores nothing
		}
		if s := measure(measures.Counts{N: n, A: len(a), B: len(b), Inter: inter}); s >= c.cfg.Threshold {
			ci.ref[[2]int{p.I, p.J}] = s
		}
	}
	ci.arena = int64(len(distinct)) * int64((n+63)/64) * 8
	shared.Lock()
	shared.cands[key] = ci
	shared.Unlock()
	return ci
}

// packs is AutoPack's choice for the candidates under budget (0: none),
// which a run verifying them in one pass must make: 16 candidates or
// more whose arena fits the budget, or 256 MiB without one.
func (ci candidates) packs(budget int64) bool {
	limit := int64(256 << 20)
	if budget > 0 {
		limit = budget
	}
	return ci.n >= 16 && ci.arena <= limit
}

// spills reports whether the scalar kernel keeps the candidates'
// counters in a bounded table under budget: they take 12 bytes each,
// and do not fit it.
func (ci candidates) spills(budget int64) bool {
	return budget > 0 && !ci.packs(budget) && int64(ci.n)*12 > budget
}

// check runs one cell and holds it to its oracle.
func (e *env) check(t *testing.T, c cell) {
	want := e.oracle(t, c)
	if len(want.Pairs) == 0 {
		t.Fatal("the oracle mined no pairs: the cell is vacuous")
	}
	ci := e.candidates(t, c)
	switch c.budget {
	case belowArena:
		c.budget = ci.arena - 1
	case atArena:
		c.budget = ci.arena
	}
	// Hooks attached change nothing: every cell runs with a Recorder and
	// a Progress function.
	cfg := c.config()
	col := NewCollector()
	cfg.Recorder, cfg.Progress = col, func(string, int64, int64) {}
	got := c.exec.run(t, e, c, cfg)
	samePairs(t, got.Pairs, want.Pairs)

	exp := want.Stats
	if c.exec.expect != nil {
		exp = c.exec.expect(t, e, c, exp)
	}
	ignore := append([]string(nil), scheduleFields...)
	for f := range c.exec.cannot {
		ignore = append(ignore, f)
	}
	sameStats(t, got.Stats, exp, ignore...)
	var size int64
	if c.exec.streams {
		info, err := os.Stat(e.file(t, c.fix, c.format))
		if err != nil {
			t.Fatal(err)
		}
		size = info.Size()
	}
	checkSchedule(t, c, ci, size, got.Stats)
	for _, tw := range c.twins() {
		e.checkTwin(t, got.Stats, tw)
	}
	if c.exec != distExec {
		if fromCol := statsFrom(col, got.Stats); !reflect.DeepEqual(fromCol, got.Stats) {
			t.Errorf("the attached Collector disagrees with Stats:\n collector %+v\n     Stats %+v", fromCol, got.Stats)
		}
	}
}

// twin is a run that must schedule its work as the cell's does: the two
// agree on every Stats field in fields.
type twin struct {
	of     string // what the twin is, for messages
	cell   cell
	fields []string
	// lessSketch: the cell queries a sketch the twin folds itself, so the
	// twin's fold shards are not the cell's.
	lessSketch bool
	// fewerBytes: the cell reads a .carows file the codec shrinks, so it
	// must read fewer bytes than the twin's .arows run.
	fewerBytes bool
}

// twins are the runs that share c's schedule: c without its faults or
// Context, which must read the same bytes and deal the same shards; for
// a streamed .carows cell, the .arows run, which must shard, spill and
// pack alike; and for a query of a precomputed sketch, the direct
// in-memory run under the same Config, which must spill and pack alike.
func (c cell) twins() []twin {
	work := []string{"ShardsStreamed", "SpillRuns", "SpillBytes", "PackedWords", "PackedBatches"}
	plain := c
	plain.faults, plain.ctx = false, false
	var out []twin
	if c.faults || c.ctx {
		reads := append(slices.Clone(work), "BytesRead")
		out = append(out, twin{of: "without faults or Context", cell: plain, fields: reads})
	}
	if c.exec == streamExec && c.format == ".carows" {
		arows := plain
		arows.format = ".arows"
		out = append(out, twin{of: "over .arows", cell: arows, fields: work, fewerBytes: compresses[c.fix]})
	}
	if c.exec.expect != nil {
		direct := cell{fix: c.fix, cfg: c.cfg, exec: memoryExec, workers: c.workers, budget: c.budget}
		out = append(out, twin{of: "run directly", cell: direct, fields: work, lessSketch: true})
	}
	return out
}

// checkTwin runs tw and holds the cell's Stats st to it.
func (e *env) checkTwin(t *testing.T, st Stats, tw twin) {
	t.Helper()
	c := tw.cell
	want := c.exec.run(t, e, c, c.config()).Stats
	if tw.lessSketch {
		sigOnly := c
		sigOnly.cfg.SkipVerify = true
		want.ShardsStreamed -= sigOnly.exec.run(t, e, sigOnly, sigOnly.config()).Stats.ShardsStreamed
	}
	gv, wv := reflect.ValueOf(st), reflect.ValueOf(want)
	for _, f := range tw.fields {
		if g, w := gv.FieldByName(f).Interface(), wv.FieldByName(f).Interface(); g != w {
			t.Errorf("Stats.%s = %v, %v %s", f, g, w, tw.of)
		}
	}
	if tw.fewerBytes && st.BytesRead >= want.BytesRead {
		t.Errorf("read %d bytes, %d bytes %s", st.BytesRead, want.BytesRead, tw.of)
	}
}

// statsFrom is st with every field a Collector counts read from col.
func statsFrom(col *Collector, st Stats) Stats {
	st.fillFrom(col)
	return st
}

// checkSchedule holds the schedule fields check does not compare to
// what each axis of the cell implies, and phase 3's kernel and memory
// strategy to the choice its candidates and budget imply. size is the
// bytes of the file the cell streams, 0 when it streams none.
func checkSchedule(t *testing.T, c cell, ci candidates, size int64, st Stats) {
	t.Helper()
	expectf := func(ok bool, format string, args ...any) {
		t.Helper()
		if !ok {
			t.Errorf(format, args...)
		}
	}
	streamed := c.exec.streams
	expectf(streamed == (st.BytesRead > 0), "BytesRead = %d on a run that streams = %v", st.BytesRead, streamed)
	// Every pass reads the whole file, a windowed one included: it crosses
	// the rows before its window.
	expectf(st.BytesRead == int64(st.DataPasses)*size, "read %d bytes in %d passes over a %d-byte file", st.BytesRead, st.DataPasses, size)
	if streamed && c.workers > 1 && c.cfg.Algorithm != HammingLSH { // H-LSH's ladder folds serially
		expectf(st.ShardsStreamed > 0, "a %d-worker streamed run dealt %d shards", c.workers, st.ShardsStreamed)
	}
	// The plan's faults are transient, so a retry proves one was delivered.
	expectf(c.faults == (st.IORetries > 0), "faults = %v, but IORetries = %d", c.faults, st.IORetries)
	if packs := ci.packs(c.budget); !c.exec.splits {
		// A packed pass loads every candidate column in one batch.
		batches := int64(0)
		if packs {
			batches = 1
		}
		expectf(st.PackedBatches == batches, "%d candidates over a %d-byte arena under a %d-byte budget verified in %d packed batches, want %d",
			ci.n, ci.arena, c.budget, st.PackedBatches, batches)
	}
	if ci.spills(c.budget) {
		// The bounded table spills.
		expectf(st.SpillRuns > 0 && st.SpillBytes > 0, "a %d-byte budget over %d candidates spilled %d runs", c.budget, ci.n, st.SpillRuns)
	} else {
		expectf(st.SpillRuns == 0 && st.SpillBytes == 0, "a %d-byte budget over %d candidates spilled %d runs, %d bytes", c.budget, ci.n, st.SpillRuns, st.SpillBytes)
	}
}

// samePairs requires got to be want, pair for pair and bit for bit.
func samePairs(t *testing.T, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d pairs, the oracle has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pair %d = %+v, the oracle's %+v", i, got[i], want[i])
		}
	}
}

// sameStats compares every Stats field but the durations and the named
// ones by reflection.
func sameStats(t *testing.T, got, want Stats, ignore ...string) {
	t.Helper()
	skip := map[string]bool{"SignatureTime": true, "CandidateTime": true, "VerifyTime": true}
	for _, f := range ignore {
		skip[f] = true
	}
	gv, wv := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		if !skip[name] && !reflect.DeepEqual(gv.Field(i).Interface(), wv.Field(i).Interface()) {
			t.Errorf("Stats.%s = %v, want %v", name, gv.Field(i), wv.Field(i))
		}
	}
}

// resident returns the sketch a resident cell queries: the batch fold
// on the cell's workers, or for a windowed scheme the one a
// sliding-window Ingest of two half-window batches leaves, or when the
// cell round-trips the one an Ingest of the whole fixture finishes to
// after a Save/LoadIngest round trip.
func (e *env) resident(t *testing.T, c cell) Resident {
	t.Helper()
	d := e.data(t, c.fix)
	if w := c.cfg.Window; w > 0 {
		in, err := NewIngest(c.cfg.Algorithm, d.NumCols(), c.cfg.K, c.cfg.Seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ingestResident(t, appendChunked(t, in, srcRows(t, d, 0, d.NumRows()), w/2, 1, false))
	}
	if c.roundTrip {
		in, err := NewIngest(c.cfg.Algorithm, d.NumCols(), c.cfg.K, c.cfg.Seed, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.AppendRows(srcRows(t, d, 0, d.NumRows()), c.workers); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "sketch.ain")
		if err := in.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIngest(path)
		if err != nil {
			t.Fatal(err)
		}
		return ingestResident(t, loaded)
	}
	if c.cfg.Algorithm != KMinHash {
		s, err := ComputeSignatures(d, c.cfg.K, c.cfg.Seed, c.workers)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s, err := ComputeSketches(d, c.cfg.K, c.cfg.Seed, c.workers)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ingestResident(t *testing.T, in *Ingest) Resident {
	t.Helper()
	var s Resident
	var err error
	if in.Algorithm() == KMinHash {
		s, err = in.Sketches()
	} else {
		s, err = in.Signatures()
	}
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// ingested folds the cell's fixture through an Ingest — appended in
// chunks, or caught up from a 60 % prefix file and then the whole file —
// and requires the finished sketch to be the batch fold's bit for bit
// (K-MH's order-dependent Updates too, for serial folds).
func ingested(t *testing.T, e *env, c cell) Resident {
	t.Helper()
	d := e.data(t, c.fix)
	n := d.NumRows()
	in, err := NewIngest(c.cfg.Algorithm, d.NumCols(), c.cfg.K, c.cfg.Seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.chunk > 0 {
		in = appendChunked(t, in, srcRows(t, d, 0, n), c.chunk, c.workers, c.snapshot)
		if got := in.Rows(); got != int64(n) {
			t.Fatalf("the ingest holds %d rows, want %d", got, n)
		}
	} else {
		cut := n * 6 / 10
		prefix := WrapMatrix(mustCollect(t, &matrix.SliceSource{Cols: d.NumCols(), Rows: srcRows(t, d, 0, cut)}))
		full := e.open(t, c)
		for _, step := range []struct {
			fd   *FileDataset
			want int
		}{
			{openSaved(t, prefix, c.format), cut},
			{full, n - cut},
			{full, 0}, // caught up: another pass over the same file is a no-op
		} {
			if got, err := in.CatchUp(step.fd, c.workers); err != nil || got != step.want {
				t.Fatalf("CatchUp = (%d, %v), want (%d, nil)", got, err, step.want)
			}
		}
		if _, err := in.CatchUpDataset(prefix, c.workers); err == nil {
			t.Fatal("catch-up from a shrunken source accepted")
		}
	}
	if in.Rows() != int64(n) {
		t.Fatalf("Rows() = %d, want %d", in.Rows(), n)
	}
	got, want := ingestResident(t, in), e.resident(t, cell{fix: c.fix, cfg: c.cfg})
	g, w := any(nil), any(nil)
	switch got := got.(type) {
	case *Signatures:
		g, w = got.sig, want.(*Signatures).sig
	case *Sketches:
		sk := *got.sk
		if c.workers > 1 {
			sk.Updates = want.(*Sketches).sk.Updates
		}
		g, w = &sk, want.(*Sketches).sk
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatal("the ingested sketch differs from the batch fold")
	}
	return got
}

// appendChunked feeds rows into the ingest in fixed-size chunks,
// optionally snapshotting to disk and reloading halfway through.
func appendChunked(t *testing.T, in *Ingest, rows [][]int32, chunk, workers int, snapshot bool) *Ingest {
	t.Helper()
	mid := len(rows) / 2
	for off := 0; off < len(rows); off += chunk {
		end := min(off+chunk, len(rows))
		if snapshot && off <= mid && mid < end && off > 0 {
			path := filepath.Join(t.TempDir(), "ingest.ain")
			if err := in.Save(path); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadIngest(path)
			if err != nil {
				t.Fatal(err)
			}
			in = restored
		}
		if err := in.AppendRows(rows[off:end], workers); err != nil {
			t.Fatal(err)
		}
	}
	return in
}

// TestMain doubles as the dist worker executable: the dist executor
// re-execs this test binary with -worker, and this hook routes the child
// into WorkerMain before any test machinery runs. The workers inherit
// the environment, where GORACE turns off the second a binary built
// with -race otherwise sleeps on exit (the race runtime's
// atexit_sleep_ms), which the coordinator would wait out.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		if err := dist.WorkerMain(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Setenv("GORACE", os.Getenv("GORACE")+" atexit_sleep_ms=0")
	os.Exit(m.Run())
}

// runDist mines the cell's file with dist's coordinator and worker
// processes. Its Stats are what the coordinator's recorder ends with.
func runDist(t *testing.T, e *env, c cell, cfg Config) *Result {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns subprocess fleets")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	rec := NewCollector()
	res, err := dist.Run(dist.Config{
		Recorder: rec, Path: e.file(t, c.fix, c.format), Algorithm: dist.Algo(cfg.Algorithm),
		Threshold: cfg.Threshold, K: cfg.K, R: cfg.R, L: cfg.L, SampleBudget: cfg.SampleBudget, Seed: cfg.Seed,
		Workers: c.workers, WorkerArgv: []string{exe, "-worker"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers < c.workers || res.Stats.BytesShipped <= 0 {
		t.Errorf("%d workers launched, %d bytes shipped", res.Stats.Workers, res.Stats.BytesShipped)
	}
	// The auto kernel packs each worker's share of the candidates on the
	// wide and clustered fixtures and on no other.
	if packs := c.fix == "dist-wide" || c.fix == "clusters"; (rec.Counter(obs.CounterPackedBatches) > 0) != packs {
		t.Errorf("the workers verified in %d packed batches; want packed = %v", rec.Counter(obs.CounterPackedBatches), packs)
	}
	out := &Result{Pairs: make([]Pair, len(res.Pairs)), Stats: statsFrom(rec, Stats{Algorithm: cfg.Algorithm})}
	for i, p := range res.Pairs {
		out.Pairs[i] = Pair{I: p.I, J: p.J, Estimate: p.Estimate, Similarity: p.Similarity}
	}
	return out
}

// saveDataset writes d to dir in the format ext names and returns the
// file's path.
func saveDataset(t *testing.T, d *Dataset, dir, ext string) string {
	t.Helper()
	path := filepath.Join(dir, "data"+ext)
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func openSaved(t *testing.T, d *Dataset, ext string) *FileDataset {
	t.Helper()
	fd, err := OpenFileDataset(saveDataset(t, d, t.TempDir(), ext))
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

// fixtures are the matrix's datasets by name.
var fixtures = map[string]func() (*Dataset, error){
	"f41":      synthetic(SyntheticOptions{Rows: 700, Cols: 70, PairsPerRange: 2, Seed: 41}),
	"f43":      synthetic(SyntheticOptions{Rows: 1600, Cols: 110, MinDensity: 0.02, MaxDensity: 0.1, PairsPerRange: 4, Seed: 43}),
	"f47":      synthetic(SyntheticOptions{Rows: 600, Cols: 120, MinDensity: 0.05, MaxDensity: 0.15, PairsPerRange: 4, Seed: 47}),
	"f21":      synthetic(SyntheticOptions{Rows: 1500, Cols: 120, PairsPerRange: 2, Seed: 21}),
	"f53":      synthetic(SyntheticOptions{Rows: 600, Cols: 50, PairsPerRange: 3, Seed: 53}),
	"f59":      synthetic(SyntheticOptions{Rows: 500, Cols: 60, PairsPerRange: 3, Seed: 59}),
	"obs":      synthetic(SyntheticOptions{Rows: 300, Cols: 80, MinDensity: 0.03, MaxDensity: 0.08, PairsPerRange: 2, Seed: 11}),
	"planted":  synthetic(SyntheticOptions{Rows: 3000, Cols: 200, PairsPerRange: 4, Seed: 11}),
	"append":   synthetic(SyntheticOptions{Rows: 260, Cols: 40, PairsPerRange: 2, Seed: 11}),
	"catch-up": synthetic(SyntheticOptions{Rows: 300, Cols: 35, PairsPerRange: 2, Seed: 21}),
	"lists":    listsMeetBitmaps,
	// dist-wide plants enough pairs that a quarter of its candidates is
	// still a list the auto kernel packs (16 or more); dist-planted's
	// handful never is.
	"dist-planted": plantedColumns(44, 3),
	"dist-wide":    plantedColumns(240, 80),
	"clusters":     clusteredColumns,
}

// compresses names the fixtures whose .carows file is smaller than their
// .arows file.
var compresses = map[string]bool{"f43": true, "f47": true}

// listsMeetBitmaps: over 6000 rows the packed kernel keeps a column
// with fewer than 11 ones as its row list. Column 2i holds 8 random rows
// and column 2i+1 those and 6 more, so every planted pair, at similarity
// 8/14, is a list verified against a bitmap; twenty pairs make enough
// candidates for AutoPack to pack them.
func listsMeetBitmaps() (*Dataset, error) {
	rng := rand.New(rand.NewSource(61))
	cols := make([][]int, 40)
	for i := 0; i < len(cols); i += 2 {
		rows := rng.Perm(6000)[:14]
		sort.Ints(rows[:8])
		cols[i] = slices.Clone(rows[:8])
		sort.Ints(rows)
		cols[i+1] = rows
	}
	return NewDatasetFromColumns(6000, cols)
}

// clusteredColumns: 2400 rows over 40 Zipf background columns (column
// c in a row with probability 0.4/(c+1)), then five clusters of seven
// near-duplicate columns, cluster i's on its own block of 300 rows,
// each member in a row of the block with probability 0.85 (pair
// similarity about 0.74). The packed kernel keeps a column of fewer
// than 4 ones as its row list, so every cluster column is a bitmap —
// of about 5 words over its block's rows, not the 38 of all rows — and
// so is the background's head.
func clusteredColumns() (*Dataset, error) {
	rng := rand.New(rand.NewSource(23))
	const rows, background, clusters, members, block = 2400, 40, 5, 7, 300
	data := make([][]int, rows)
	for r := range data {
		for c := 0; c < background; c++ {
			if rng.Float64() < 0.4/float64(c+1) {
				data[r] = append(data[r], c)
			}
		}
		if g := r / block; g < clusters {
			for k := 0; k < members; k++ {
				if rng.Float64() < 0.85 {
					data[r] = append(data[r], background+g*members+k)
				}
			}
		}
	}
	return NewDatasetFromRows(background+clusters*members, data)
}

func synthetic(opt SyntheticOptions) func() (*Dataset, error) {
	return func() (*Dataset, error) {
		d, _, err := GenerateSynthetic(opt)
		return d, err
	}
}

// plantedColumns fills cols columns at density 0.08 over 220 rows;
// each of the last planted columns gets no random fill of its own but
// copies column i (its index among them) with probability 0.9, so the
// planted pairs sit well above the 0.35 threshold the dist cells mine at.
func plantedColumns(cols, planted int) func() (*Dataset, error) {
	return func() (*Dataset, error) {
		rng := rand.New(rand.NewSource(9))
		first := cols - planted
		data := make([][]int, 220)
		for r := range data {
			for c := 0; c < first; c++ {
				if rng.Float64() < 0.08 {
					data[r] = append(data[r], c)
				}
			}
			for i := 0; i < planted; i++ {
				if slices.Contains(data[r], i) && rng.Float64() < 0.9 {
					data[r] = append(data[r], first+i)
				}
			}
		}
		return NewDatasetFromRows(cols, data)
	}
}

type named struct {
	name string
	cfg  Config
}

var (
	// schemes5 mine f41 and f43 at 0.5.
	schemes5 = []named{
		{"MH", Config{Algorithm: MinHash, Threshold: 0.5, K: 50, Seed: 7}},
		{"K-MH", Config{Algorithm: KMinHash, Threshold: 0.5, K: 50, Seed: 7}},
		{"M-LSH", Config{Algorithm: MinLSH, Threshold: 0.5, K: 50, R: 5, L: 10, Seed: 7}},
		{"BPS", Config{Algorithm: BPS, Threshold: 0.5, Seed: 7}},
	}
	// loose schemes flood verification with candidates: Delta close to 1
	// (and M-LSH's wide banding) puts f47's counter table well past the
	// 4 KiB budget of the spilling cells.
	loose = []named{
		{"MH", Config{Algorithm: MinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}},
		{"K-MH", Config{Algorithm: KMinHash, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}},
		{"M-LSH", Config{Algorithm: MinLSH, Threshold: 0.3, K: 40, R: 2, L: 20, Seed: 13}},
		{"BPS", Config{Algorithm: BPS, Threshold: 0.3, Delta: 0.9, Seed: 13}},
	}
	// planted6 mine the planted fixture at 0.6, H-LSH included.
	planted6 = []named{
		{"MinHash", Config{Algorithm: MinHash, Threshold: 0.6, K: 60, Seed: 4}},
		{"KMinHash", Config{Algorithm: KMinHash, Threshold: 0.6, K: 60, Seed: 4}},
		{"MinLSH", Config{Algorithm: MinLSH, Threshold: 0.6, K: 60, R: 3, L: 20, Seed: 4}},
		{"HammingLSH", Config{Algorithm: HammingLSH, Threshold: 0.6, K: 60, Seed: 4}},
		{"BPS", Config{Algorithm: BPS, Threshold: 0.6, Seed: 4}},
	}
	// precomputed schemes flood verification from the planted sketches;
	// M-LSH's one-row bands yield thousands of candidates.
	precomputed = []named{
		{"mh", Config{Algorithm: MinHash, Threshold: 0.3, Delta: 0.9, K: 60, Seed: 5}},
		{"mlsh", Config{Algorithm: MinLSH, Threshold: 0.3, Delta: 0.9, K: 60, R: 1, L: 20, Seed: 5}},
		{"kmh", Config{Algorithm: KMinHash, Threshold: 0.3, Delta: 0.9, K: 60, Seed: 5}},
	}
	distSchemes = []named{
		{"MH", Config{Algorithm: MinHash, Threshold: 0.35, K: 48, Seed: 7}},
		{"KMH", Config{Algorithm: KMinHash, Threshold: 0.35, K: 32, Seed: 7}},
		{"MLSH", Config{Algorithm: MinLSH, Threshold: 0.35, K: 30, R: 3, L: 10, Seed: 7}},
		{"MLSH-sampled", Config{Algorithm: MinLSH, Threshold: 0.35, K: 12, R: 3, L: 8, Seed: 7}},
		{"BPS", Config{Algorithm: BPS, Threshold: 0.35, SampleBudget: 8, Seed: 7}},
	}
	// rules7 is §6's row: f41's rules at confidence 0.7; looseRules a set
	// whose candidates flood f47's 4 KiB budget.
	rules7     = Config{Algorithm: Rules, Threshold: 0.7, K: 50, Seed: 7}
	looseRules = Config{Algorithm: Rules, Threshold: 0.3, K: 40, Delta: 0.9, Seed: 13}
	formats    = []string{".txt", ".arows", ".carows"}
	// kernels name the cells of a scalar/packed pair (steer).
	kernels = []string{"scalar", "packed"}
)

// equivalenceMatrix lists every cell, grouped by the top-level test it
// runs under.
func equivalenceMatrix() []cell {
	var cells []cell
	add := func(group string, c cell, format string, args ...any) {
		c.group, c.name = group, fmt.Sprintf(format, args...)
		cells = append(cells, c)
	}
	for fi, fix := range []string{"f41", "f43"} {
		for _, ext := range formats {
			for _, s := range schemes5[:3] {
				for _, w := range []int{1, 4} {
					for _, k := range kernels {
						add("TestStreamedPipelineMatchesInMemory", cell{fix: fix, cfg: s.cfg, exec: streamExec, format: ext, workers: w, budget: steer(k, 0), ctx: true},
							"fixture%d%s/%s/workers=%d/%v", fi, ext, s.name, w, k)
					}
				}
			}
			for _, w := range []int{1, 4} {
				for _, k := range kernels {
					add("TestBPSDifferential", cell{fix: fix, cfg: schemes5[3].cfg, exec: streamExec, format: ext, workers: w, budget: steer(k, 0)},
						"fixture%d%s/workers=%d/%v", fi, ext, w, k)
				}
			}
		}
	}
	for _, w := range []int{1, 4} {
		add("TestStreamedMemoryBudget", cell{fix: "f47", cfg: loose[0].cfg, exec: streamExec, format: ".arows", workers: w, budget: 4096}, "workers=%d", w)
		add("TestBPSBudgetedSpillMatches", cell{fix: "f47", cfg: loose[3].cfg, exec: streamExec, format: ".arows", workers: w, budget: 4096}, "workers=%d", w)
	}
	add("TestStreamedMemoryBudget", cell{fix: "f47", cfg: loose[0].cfg, exec: memoryExec, workers: 4, budget: 4096}, "memory/workers=4")
	for _, s := range loose[:3] {
		for _, w := range []int{1, 4} {
			for _, b := range []int64{0, 4096} {
				add("TestCompressedPipelineMatchesUncompressed", cell{fix: "f47", cfg: s.cfg, exec: streamExec, format: ".carows", workers: w, budget: b},
					"%s/workers=%d/budget=%d", s.name, w, b)
			}
		}
	}
	for _, s := range schemes5 {
		for _, w := range []int{1, 4} {
			add("TestCompressedChaosTransientBitIdentical", cell{fix: "f41", cfg: s.cfg, exec: streamExec, format: ".carows", workers: w, faults: true},
				"%s/workers=%d", s.name, w)
		}
	}
	for _, ext := range formats[:2] {
		for _, s := range schemes5 {
			for _, w := range []int{1, 4} {
				for _, k := range kernels {
					add("TestChaosTransientFaultsBitIdentical", cell{fix: "f41", cfg: s.cfg, exec: streamExec, format: ext, workers: w, budget: steer(k, 0), faults: true},
						"%s/%s/workers=%d/%v", ext[1:], s.name, w, k)
				}
			}
		}
		add("TestChaosTransientFaultsBitIdentical", cell{fix: "f41", cfg: rules7, exec: streamExec, format: ext, workers: 1, faults: true}, "%s/rules", ext[1:])
	}
	for _, s := range planted6 {
		for _, w := range []int{2, 4, 7} {
			add("TestWorkersDeterminismTable", cell{fix: "planted", cfg: s.cfg, exec: memoryExec, workers: w}, "%s/workers=%d/memory", s.name, w)
			add("TestWorkersDeterminismTable", cell{fix: "planted", cfg: s.cfg, exec: streamExec, format: ".arows", workers: w}, "%s/workers=%d/file", s.name, w)
		}
	}
	for _, s := range planted6[:3] {
		for _, w := range []int{2, 8, -1} {
			add("TestWorkersBitIdentical", cell{fix: "planted", cfg: s.cfg, exec: memoryExec, workers: w}, "%s/workers=%d", s.name, w)
		}
	}
	for _, ext := range formats[:2] {
		for _, a := range []Algorithm{BruteForce, MinHash, KMinHash, MinLSH, HammingLSH, Apriori} {
			cfg := Config{Algorithm: a, Threshold: 0.45, K: 60, R: 3, L: 20, Seed: 5}
			switch a {
			case HammingLSH:
				cfg.R, cfg.L = 6, 10
			case Apriori:
				// Support pruning drops 4 of brute force's 10 pairs.
				cfg.MinSupport = 0.02
			}
			add("TestFileDatasetMatchesInMemory", cell{fix: "f21", cfg: cfg, exec: streamExec, format: ext}, "%s/%v", ext, a)
		}
	}
	for _, w := range []int{1, 4} {
		add("TestProgressDoesNotChangeResults", cell{fix: "obs", cfg: Config{Algorithm: MinHash, Threshold: 0.5, K: 60, Seed: 3}, exec: memoryExec, workers: w}, "workers=%d", w)
	}
	e2e := Config{Algorithm: MinLSH, Threshold: 0.7, K: 60, R: 3, L: 20, Seed: 8}
	for _, ex := range []*executor{streamExec, residentExec, progressiveExec} {
		add("TestEndToEndViaEveryEntryPoint", cell{fix: "planted", cfg: e2e, exec: ex, format: ".arows"}, ex.name)
	}
	for _, w := range []int{1, 4} {
		add("TestIncrWindowProgressive", cell{fix: "f53", cfg: Config{Algorithm: MinLSH, Threshold: 0.5, K: 60, R: 5, L: 12, Seed: 9, Window: 200}, exec: progressiveExec, workers: w},
			"workers=%d", w)
	}
	add("TestWorkersOnFileDataset", cell{fix: "f21", cfg: Config{Algorithm: MinHash, Threshold: 0.45, K: 40, Seed: 9}, exec: streamExec, format: ".arows", workers: 4},
		"arows/workers=4")
	for _, s := range precomputed {
		for _, win := range []int{0, 2000} {
			for _, w := range []int{1, 2} {
				for _, k := range kernels {
					for _, b := range []int64{0, 48 << 10} {
						c := cell{fix: "planted", cfg: s.cfg, exec: residentExec, workers: w, budget: steer(k, b)}
						c.cfg.Window = win
						add("TestPrecomputedSketchesHonourMemoryBudget", c, "%s/window=%d/workers=%d/%v/budget=%d", s.name, win, w, k, b)
					}
				}
			}
		}
	}
	for _, g := range []named{
		{"TestIncrAppendMatchesBatchMH", Config{Algorithm: MinHash, Threshold: 0.5, K: 16, Seed: 5}},
		{"TestIncrAppendMatchesBatchKMH", Config{Algorithm: KMinHash, Threshold: 0.5, K: 8, Seed: 19}},
	} {
		for _, chunk := range []int{1, 3, 7} {
			for _, w := range []int{1, 4} {
				for _, snap := range []bool{false, true} {
					add(g.name, cell{fix: "append", cfg: g.cfg, exec: incrementalExec, workers: w, chunk: chunk, snapshot: snap},
						"chunk=%d/workers=%d/snapshot=%v", chunk, w, snap)
				}
			}
		}
	}
	for _, algo := range []Algorithm{MinHash, KMinHash} {
		for _, ext := range formats {
			for _, w := range []int{1, 4} {
				add("TestIncrCatchUpMatchesBatch", cell{fix: "catch-up", cfg: Config{Algorithm: algo, Threshold: 0.5, K: 12, Seed: 3}, exec: incrementalExec, format: ext, workers: w},
					"%v%s/workers=%d", algo, ext, w)
			}
		}
	}
	for _, s := range planted6[:2] {
		s.cfg.K, s.cfg.Seed = 30, 3
		add("TestSignaturesParallelIdentical", cell{fix: "planted", cfg: s.cfg, exec: residentExec, workers: 8}, "%s/workers=8", s.name)
	}
	for _, rt := range []bool{false, true} {
		add("TestIncrSketchQueryMatchesDirect", cell{fix: "f59", cfg: Config{Algorithm: KMinHash, Threshold: 0.5, K: 30, Seed: 17}, exec: residentExec, roundTrip: rt},
			"saved=%v", rt)
		add("TestIncrSketchQueryMatchesDirect", cell{fix: "f59", cfg: Config{Algorithm: MinHash, Threshold: 0.5, K: 30, Seed: 17}, exec: residentExec, roundTrip: rt},
			"MinHash/saved=%v", rt)
	}
	for _, fix := range []string{"dist-planted", "dist-wide"} {
		for _, s := range distSchemes {
			for _, w := range []int{1, 4} {
				for _, ext := range formats[1:] {
					add("TestDistMatchesSingleProcess", cell{fix: fix, cfg: s.cfg, exec: distExec, format: ext, workers: w},
						"%s/%s/%s/workers=%d", fix, s.name, ext[1:], w)
				}
			}
		}
	}

	// Cells none of the replaced harnesses ran.
	const g = "TestEquivalenceMatrix"
	for _, s := range []named{{"MH", Config{Algorithm: MinHash, Threshold: 0.3, Delta: 0.9, K: 16, Seed: 5}}, {"K-MH", Config{Algorithm: KMinHash, Threshold: 0.3, Delta: 0.9, K: 8, Seed: 19}}} {
		add(g, cell{fix: "append", cfg: s.cfg, exec: incrementalExec, workers: 1, chunk: 7, snapshot: true}, "ingest/%s/snapshot/packed", s.name)
		add(g, cell{fix: "append", cfg: s.cfg, exec: incrementalExec, workers: 4, chunk: 7, snapshot: true, budget: 512}, "ingest/%s/snapshot/budget", s.name)
	}
	for _, w := range []int{1, 4} {
		add(g, cell{fix: "f47", cfg: loose[0].cfg, exec: streamExec, format: ".txt", workers: w, budget: 4096}, "stream/txt/MH/workers=%d/budget", w)
		add(g, cell{fix: "f47", cfg: loose[3].cfg, exec: streamExec, format: ".carows", workers: w, budget: 4096}, "stream/carows/BPS/workers=%d/budget", w)
	}
	for _, s := range schemes5 {
		add(g, cell{fix: "f41", cfg: s.cfg, exec: streamExec, format: ".carows", workers: 4, faults: true}, "stream/carows/%s/faults/packed", s.name)
		for _, w := range []int{1, 4} {
			add(g, cell{fix: "f43", cfg: s.cfg, exec: memoryExec, workers: w}, "memory/%s/workers=%d/packed", s.name, w)
			for _, ext := range formats {
				c := cell{fix: "f41", cfg: s.cfg, exec: streamExec, format: ext, workers: w}
				c.cfg.Window = 300
				add(g, c, "stream/%s/%s/window/workers=%d", ext[1:], s.name, w)
			}
		}
	}
	// §6's Rules: the same template with confidence as phase 3's measure,
	// so every executor that can run it — not dist, not an Ingest — under
	// every axis that can reach it.
	for _, w := range []int{1, 4} {
		for _, k := range kernels {
			add(g, cell{fix: "f41", cfg: rules7, exec: memoryExec, workers: w, budget: steer(k, 0)}, "rules/memory/workers=%d/%v", w, k)
			for _, ext := range formats {
				add(g, cell{fix: "f41", cfg: rules7, exec: streamExec, format: ext, workers: w, budget: steer(k, 0), ctx: true}, "rules/stream%s/workers=%d/%v", ext, w, k)
			}
		}
		for _, k := range kernels {
			for _, b := range []int64{0, 4096} {
				add(g, cell{fix: "f47", cfg: looseRules, exec: residentExec, workers: w, budget: steer(k, b)}, "rules/resident/workers=%d/%v/budget=%d", w, k, b)
			}
		}
		add(g, cell{fix: "f47", cfg: looseRules, exec: streamExec, format: ".arows", workers: w, budget: 4096}, "rules/stream.arows/workers=%d/budget", w)
		add(g, cell{fix: "f47", cfg: looseRules, exec: streamExec, format: ".carows", workers: w, budget: 4096}, "rules/stream.carows/workers=%d/budget", w)
		c := cell{fix: "f41", cfg: rules7, exec: streamExec, format: ".arows", workers: w}
		c.cfg.Window = 300
		add(g, c, "rules/stream.arows/window/workers=%d", w)
	}
	add(g, cell{fix: "f47", cfg: looseRules, exec: memoryExec, workers: 4, budget: 4096}, "rules/memory/workers=4/budget")
	add(g, cell{fix: "f41", cfg: rules7, exec: streamExec, format: ".carows", workers: 4, faults: true}, "rules/stream.carows/faults/packed")
	// Clusters on disjoint rows: every packed executor numbers a
	// component's rows by rank in its union, under a budget or not.
	clustered := Config{Algorithm: MinHash, Threshold: 0.5, K: 40, Seed: 7}
	// The budget of six bitmaps of the fixture's 2400 rows the budgeted
	// cells once batched their columns under; steer runs them at their
	// arena.
	const clusterBudget = 6 * 38 * 8
	for _, w := range []int{1, 4} {
		add(g, cell{fix: "clusters", cfg: clustered, exec: memoryExec, workers: w}, "clusters/memory/workers=%d/packed", w)
		add(g, cell{fix: "clusters", cfg: clustered, exec: streamExec, format: ".carows", workers: w}, "clusters/stream/carows/workers=%d/packed", w)
	}
	for _, w := range []int{2, 4} { // 26 candidates or more a job: each packs
		add(g, cell{fix: "clusters", cfg: clustered, exec: distExec, format: ".arows", workers: w}, "clusters/dist/arows/workers=%d", w)
	}
	add(g, cell{fix: "clusters", cfg: clustered, exec: memoryExec, workers: 1, budget: steer("packed", clusterBudget)}, "clusters/memory/budget/packed")
	add(g, cell{fix: "clusters", cfg: clustered, exec: streamExec, format: ".carows", workers: 4, budget: steer("packed", clusterBudget)}, "clusters/stream/carows/budget/packed")
	for _, b := range []int64{0, clusterBudget} {
		add(g, cell{fix: "clusters", cfg: clustered, exec: residentExec, workers: 2, budget: steer("packed", b)}, "clusters/resident/budget=%d/packed", b)
	}
	add(g, cell{fix: "clusters", cfg: clustered, exec: incrementalExec, workers: 1, chunk: 7, snapshot: true}, "clusters/incremental/packed")
	for _, ex := range []*executor{memoryExec, streamExec} {
		for _, w := range []int{1, 4} {
			add(g, cell{fix: "lists", cfg: schemes5[0].cfg, exec: ex, format: map[bool]string{true: ".arows"}[ex.streams], workers: w},
				"lists/%s/workers=%d/packed", ex.name, w)
		}
	}
	return cells
}

// runGroup runs the matrix cells of the calling top-level test, and
// requires them to leave no goroutine behind.
func runGroup(t *testing.T) {
	testutil.CheckGoroutines(t)
	e := &env{dir: t.TempDir(), files: map[string]string{}}
	var cells []cell
	for _, c := range equivalenceMatrix() {
		if c.group == t.Name() {
			cells = append(cells, c)
		}
	}
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	runCells(t, e, cells, 0)
}

// runCells runs cells as subtests, one t.Run per segment of their
// paths, in the order each segment first appears.
func runCells(t *testing.T, e *env, cells []cell, depth int) {
	var segs []string
	under := map[string][]cell{}
	for _, c := range cells {
		seg := strings.Split(c.name, "/")[depth]
		if under[seg] == nil {
			segs = append(segs, seg)
		}
		under[seg] = append(under[seg], c)
	}
	for _, seg := range segs {
		sub := under[seg]
		t.Run(seg, func(t *testing.T) {
			if strings.Count(sub[0].name, "/") == depth {
				e.check(t, sub[0])
				return
			}
			runCells(t, e, sub, depth+1)
		})
	}
}

func TestStreamedPipelineMatchesInMemory(t *testing.T)       { runGroup(t) }
func TestStreamedMemoryBudget(t *testing.T)                  { runGroup(t) }
func TestCompressedPipelineMatchesUncompressed(t *testing.T) { runGroup(t) }
func TestCompressedChaosTransientBitIdentical(t *testing.T)  { runGroup(t) }
func TestBPSDifferential(t *testing.T)                       { runGroup(t) }
func TestBPSBudgetedSpillMatches(t *testing.T)               { runGroup(t) }
func TestWorkersDeterminismTable(t *testing.T)               { runGroup(t) }
func TestWorkersBitIdentical(t *testing.T)                   { runGroup(t) }
func TestWorkersOnFileDataset(t *testing.T)                  { runGroup(t) }
func TestProgressDoesNotChangeResults(t *testing.T)          { runGroup(t) }
func TestEndToEndViaEveryEntryPoint(t *testing.T)            { runGroup(t) }
func TestIncrWindowProgressive(t *testing.T)                 { runGroup(t) }
func TestPrecomputedSketchesHonourMemoryBudget(t *testing.T) { runGroup(t) }
func TestIncrAppendMatchesBatchMH(t *testing.T)              { runGroup(t) }
func TestIncrAppendMatchesBatchKMH(t *testing.T)             { runGroup(t) }
func TestIncrCatchUpMatchesBatch(t *testing.T)               { runGroup(t) }
func TestIncrSketchQueryMatchesDirect(t *testing.T)          { runGroup(t) }
func TestSignaturesParallelIdentical(t *testing.T)           { runGroup(t) }
func TestDistMatchesSingleProcess(t *testing.T)              { runGroup(t) }
func TestEquivalenceMatrix(t *testing.T)                     { runGroup(t) }

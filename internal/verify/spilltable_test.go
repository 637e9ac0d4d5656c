package verify

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"assocmine/internal/hashing"
	"assocmine/internal/matrix"
	"assocmine/internal/pairs"
)

// tableOracle drives a spillTable next to the map it replaced and
// compares the two at every drain.
type tableOracle struct {
	t      testing.TB
	table  *spillTable
	want   map[int32]spillSlot // key unused
	drains int
}

func newTableOracle(t testing.TB, maxEntries int) *tableOracle {
	return &tableOracle{t: t, table: newSpillTable(maxEntries), want: map[int32]spillSlot{}}
}

func (o *tableOracle) touch(idx, r int32) {
	o.table.touch(idx, r)
	e := o.want[idx]
	if e.lastRowP1 == r+1 {
		e.both++
	} else {
		e.lastRowP1 = r + 1
		e.either++
	}
	o.want[idx] = e
	if o.table.n != len(o.want) {
		o.t.Fatalf("after touching %d in row %d: table holds %d entries, map %d", idx, r, o.table.n, len(o.want))
	}
}

// drain compares the table's sorted entries with the map's and empties
// both, as a spill does.
func (o *tableOracle) drain() {
	o.t.Helper()
	pos := o.table.sorted()
	got := make([]spillEntry, len(pos))
	for i, h := range pos {
		got[i] = o.table.entry(h)
	}
	want := make([]spillEntry, 0, len(o.want))
	for idx, e := range o.want {
		want = append(want, spillEntry{idx: idx, either: e.either, both: e.both})
	}
	sort.Slice(want, func(a, b int) bool { return want[a].idx < want[b].idx })
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		o.t.Fatalf("drain %d: table %v\nmap %v", o.drains, got, want)
	}
	o.table.free(pos)
	if o.table.n != 0 {
		o.t.Fatalf("drain %d left %d entries", o.drains, o.table.n)
	}
	for h, e := range o.table.slot {
		if e.key != 0 {
			o.t.Fatalf("drain %d left slot %d occupied", o.drains, h)
		}
	}
	clear(o.want)
	o.drains++
}

// TestSpillTableVsMap: random rows, some far longer than the table is
// sized for (so it grows mid-row), some touching a candidate twice (the
// intersection count), always including the first and last candidate
// index; the table must agree with the map across several drains and
// keep working after each.
func TestSpillTableVsMap(t *testing.T) {
	for _, tc := range []struct{ maxEntries, nCand int }{{16, 40}, {16, 5000}, {100, 1000}, {1000, 1 << 20}} {
		t.Run(fmt.Sprintf("max=%d/cand=%d", tc.maxEntries, tc.nCand), func(t *testing.T) {
			rng := hashing.NewSplitMix64(uint64(tc.maxEntries + tc.nCand))
			o := newTableOracle(t, tc.maxEntries)
			slots := len(o.table.slot)
			for r := int32(0); o.drains < 5; r++ {
				n := 1 + rng.Intn(tc.maxEntries/4+1)
				if r%7 == 3 {
					n = 3 * tc.maxEntries // a long row: overshoots the 3/4 load
				}
				o.touch(0, r)
				o.touch(int32(tc.nCand-1), r)
				for i := 0; i < n; i++ {
					idx := int32(rng.Intn(tc.nCand))
					o.touch(idx, r)
					if rng.Intn(3) == 0 {
						o.touch(idx, r)
					}
				}
				if o.table.n > tc.maxEntries {
					o.drain()
				}
			}
			if tc.nCand > 4*tc.maxEntries && len(o.table.slot) == slots {
				t.Fatalf("table never grew beyond %d slots", slots)
			}
			o.drain() // the resident remainder, possibly empty
		})
	}
}

// FuzzSpillTableVsMap: the touch sequence is the fuzz input. Each byte
// pair is a candidate index, except that a first byte of 0xff ends the
// row and drains when the table is over its bound.
func FuzzSpillTableVsMap(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0xff, 0, 0, 2, 0, 1}, uint8(0), uint16(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0xff, 0xff, 1, 2}, uint8(2), uint16(700))
	f.Fuzz(func(t *testing.T, ops []byte, maxEntries uint8, nCand uint16) {
		o := newTableOracle(t, 1+int(maxEntries))
		r := int32(0)
		for ; len(ops) >= 2; ops = ops[2:] {
			if ops[0] == 0xff {
				if r++; o.table.n > 1+int(maxEntries) {
					o.drain()
				}
				continue
			}
			o.touch(int32((int(ops[0])<<8|int(ops[1]))%(1+int(nCand))), r)
		}
		o.drain()
	})
}

// everyRowSpills builds a matrix over 12 columns whose rows each set at
// least 7 of them, so that a row touches at least 56 of the 66 pairs —
// under a minSpillEntries budget every one of the first runs rows ends
// in a spill — followed by one single-column row that stays resident.
func everyRowSpills(rng *hashing.SplitMix64, runs int) (*matrix.Matrix, []pairs.Scored) {
	data := make([][]int32, runs+1)
	for r := 0; r < runs; r++ {
		for c := int32(0); c < 12; c++ {
			if c < 7 || rng.Intn(2) == 0 {
				data[r] = append(data[r], (c+int32(r))%12)
			}
		}
	}
	data[runs] = []int32{int32(runs % 12)}
	m, err := matrix.FromRows(12, data)
	if err != nil {
		panic(err)
	}
	return m, allPairsCandidates(12)
}

// TestStagedMerge lowers the merge fan-in and forces 1, fan-in,
// fan-in+1 and fan-in²+1 runs: no intermediate
// generation, a full final merge, one intermediate generation with a
// single-run group carried over, and two generations. Results must
// equal Exact and the Stats must be those of the default fan-in.
func TestStagedMerge(t *testing.T) {
	budget := Budget{Bytes: minSpillEntries * spillEntryBytes, Dir: t.TempDir()}
	for _, fanIn := range []int{2, 3} {
		for _, runs := range []int{1, fanIn, fanIn + 1, fanIn*fanIn + 1} {
			m, cand := everyRowSpills(hashing.NewSplitMix64(uint64(runs)), runs)
			want, _, err := Exact(m.Stream(), cand, 0.3)
			if err != nil {
				t.Fatal(err)
			}
			_, wantSt, err := count(m.Stream(), cand, Params{Threshold: 0.3, Budget: budget}, spillFanIn)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := count(m.Stream(), cand, Params{Threshold: 0.3, Budget: budget}, fanIn)
			if err != nil {
				t.Fatalf("fanIn=%d runs=%d: %v", fanIn, runs, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fanIn=%d runs=%d: output differs from Exact", fanIn, runs)
			}
			if st.SpillRuns != int64(runs) || st != wantSt {
				t.Fatalf("fanIn=%d runs=%d: stats %+v, want %d runs and %+v", fanIn, runs, st, runs, wantSt)
			}
			if n := countSpillFiles(t, budget.Dir); n != 0 {
				t.Fatalf("%d spill files remain", n)
			}
		}
	}
}

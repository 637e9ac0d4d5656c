package matrix

import (
	"math"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"assocmine/internal/hashing"
	"assocmine/internal/testutil"
)

// paperExample is the matrix of Example 1 in the paper:
//
//	c1 c2 c3
//	 1  1  0   r1
//	 1  1  0   r2
//	 0  1  1   r3
//	 0  0  1   r4
func paperExample() *Matrix {
	return testutil.Must(New(4, [][]int32{
		{0, 1},    // c1
		{0, 1, 2}, // c2
		{2, 3},    // c3
	}))
}

func TestPaperExampleSimilarities(t *testing.T) {
	m := paperExample()
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 1, 2.0 / 3.0},
		{0, 2, 0},
		{1, 2, 1.0 / 4.0},
	}
	for _, c := range cases {
		if got := m.Similarity(c.i, c.j); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("S(c%d,c%d) = %v, want %v", c.i+1, c.j+1, got, c.want)
		}
		if got := m.Similarity(c.j, c.i); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("S(c%d,c%d) = %v, want %v (symmetry)", c.j+1, c.i+1, got, c.want)
		}
	}
}

// TestConfidence: the counts a rule's confidence Conf(c_i => c_j) =
// |C_i ∩ C_j| / |C_i| is computed from hold the paper's example:
// Conf(c1 => c2) = 2/2 = 1 and Conf(c2 => c1) = 2/3.
func TestConfidence(t *testing.T) {
	m := paperExample()
	if inter, c1, c2 := m.IntersectSize(0, 1), m.ColumnSize(0), m.ColumnSize(1); inter != 2 || c1 != 2 || c2 != 3 {
		t.Errorf("|C1∩C2| = %d, |C1| = %d, |C2| = %d; want 2, 2, 3", inter, c1, c2)
	}
	if m.IntersectSize(1, 0) != m.IntersectSize(0, 1) {
		t.Error("IntersectSize is not symmetric")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(-1, nil); err == nil {
		t.Error("negative rows accepted")
	}
	if _, err := New(3, [][]int32{{0, 0}}); err == nil {
		t.Error("duplicate row indices accepted")
	}
	if _, err := New(3, [][]int32{{2, 1}}); err == nil {
		t.Error("unsorted column accepted")
	}
	if _, err := New(3, [][]int32{{3}}); err == nil {
		t.Error("out-of-range row accepted")
	}
	if _, err := New(0, [][]int32{{}}); err != nil {
		t.Errorf("empty matrix rejected: %v", err)
	}
}

func TestBuilderSortsAndDedups(t *testing.T) {
	b := NewBuilder(5, 2)
	b.Set(3, 0)
	b.Set(1, 0)
	b.Set(3, 0)
	b.Set(0, 1)
	m := b.Build()
	if got := m.Column(0); !reflect.DeepEqual(got, []int32{1, 3}) {
		t.Errorf("column 0 = %v, want [1 3]", got)
	}
	if got := m.Column(1); !reflect.DeepEqual(got, []int32{0}) {
		t.Errorf("column 1 = %v, want [0]", got)
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	b := NewBuilder(2, 2)
	for _, fn := range []func(){
		func() { b.Set(2, 0) },
		func() { b.Set(-1, 0) },
		func() { b.Set(0, 2) },
		func() { b.Set(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range Set did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows(3, [][]int32{{0, 1}, {1}, {2, 0}, {}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 4 || m.NumCols() != 3 {
		t.Fatalf("dimensions %dx%d, want 4x3", m.NumRows(), m.NumCols())
	}
	if !reflect.DeepEqual(m.Column(0), []int32{0, 2}) {
		t.Errorf("column 0 = %v", m.Column(0))
	}
	if _, err := FromRows(2, [][]int32{{2}}); err == nil {
		t.Error("out-of-range column accepted")
	}
}

func TestOnesAndDensity(t *testing.T) {
	m := paperExample()
	if m.Ones() != 7 {
		t.Errorf("Ones = %d, want 7", m.Ones())
	}
	if got := m.Density(1); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("Density(c2) = %v, want 0.75", got)
	}
	empty := testutil.Must(New(0, [][]int32{{}}))
	if empty.Density(0) != 0 {
		t.Error("density of column in empty matrix should be 0")
	}
}

func TestHammingDistanceLemma3(t *testing.T) {
	// Lemma 3: S = (|Ci|+|Cj|-dH) / (|Ci|+|Cj|+dH), with dH the rows on
	// which exactly one of the two columns is 1.
	m := paperExample()
	for i := 0; i < m.NumCols(); i++ {
		for j := 0; j < m.NumCols(); j++ {
			dh := len(orRows(m.Column(i), m.Column(j))) - len(andRows(m.Column(i), m.Column(j)))
			rho := float64(m.ColumnSize(i) + m.ColumnSize(j))
			want := m.Similarity(i, j)
			var got float64
			if rho+float64(dh) > 0 {
				got = (rho - float64(dh)) / (rho + float64(dh))
			}
			if math.Abs(got-want) > 1e-12 {
				t.Errorf("Lemma 3 violated for (%d,%d): %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestOrAndColumns(t *testing.T) {
	a := []int32{0, 2, 5}
	b := []int32{2, 3, 5, 7}
	if got := orRows(a, b); !reflect.DeepEqual(got, []int32{0, 2, 3, 5, 7}) {
		t.Errorf("orRows = %v", got)
	}
	if got := andRows(a, b); !reflect.DeepEqual(got, []int32{2, 5}) {
		t.Errorf("andRows = %v", got)
	}
	if got := orRows(nil, b); !reflect.DeepEqual(got, b) {
		t.Errorf("orRows(nil,b) = %v", got)
	}
	if got := andRows(a, nil); got != nil {
		t.Errorf("andRows(a,nil) = %v, want nil", got)
	}
}

func TestIntersectGalloping(t *testing.T) {
	// Force the galloping path: short vs very long column.
	long := make([]int32, 1000)
	for i := range long {
		long[i] = int32(2 * i)
	}
	short := []int32{0, 3, 500, 1000, 1998}
	m := testutil.Must(New(2000, [][]int32{short, long}))
	want := 0
	set := map[int32]bool{}
	for _, v := range long {
		set[v] = true
	}
	for _, v := range short {
		if set[v] {
			want++
		}
	}
	if got := m.IntersectSize(0, 1); got != want {
		t.Errorf("galloping intersect = %d, want %d", got, want)
	}
	if got := m.IntersectSize(1, 0); got != want {
		t.Errorf("galloping intersect (swapped) = %d, want %d", got, want)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	m := paperExample()
	got, err := Collect(m.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if !matricesEqual(m, got) {
		t.Error("Collect(Stream()) != original")
	}
}

func TestStreamRowsSorted(t *testing.T) {
	rng := hashing.NewSplitMix64(1)
	m := randomMatrix(rng, 200, 30, 0.1)
	err := m.Stream().Scan(func(row int, cols []int32) error {
		for i := 1; i < len(cols); i++ {
			if cols[i-1] >= cols[i] {
				t.Fatalf("row %d not strictly increasing: %v", row, cols)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCountingSource(t *testing.T) {
	m := paperExample()
	cs := &CountingSource{Src: m.Stream()}
	for p := 0; p < 3; p++ {
		if err := cs.Scan(func(int, []int32) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if cs.Passes != 3 {
		t.Errorf("Passes = %d, want 3", cs.Passes)
	}
	if cs.Rows != 12 {
		t.Errorf("Rows = %d, want 12", cs.Rows)
	}
}

func TestSliceSource(t *testing.T) {
	s := &SliceSource{Cols: 3, Rows: [][]int32{{0, 2}, {}, {1}}}
	m, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumRows() != 3 || m.NumCols() != 3 {
		t.Fatalf("dims %dx%d", m.NumRows(), m.NumCols())
	}
	if !reflect.DeepEqual(m.Column(2), []int32{0}) {
		t.Errorf("column 2 = %v", m.Column(2))
	}
}

func TestQuickSimilarityProperties(t *testing.T) {
	rng := hashing.NewSplitMix64(10)
	f := func(seed uint64) bool {
		m := randomMatrix(hashing.NewSplitMix64(seed), 50, 8, 0.2)
		for i := 0; i < m.NumCols(); i++ {
			for j := 0; j < m.NumCols(); j++ {
				s := m.Similarity(i, j)
				if s < 0 || s > 1 {
					return false
				}
				if s != m.Similarity(j, i) {
					return false
				}
				if i == j && m.ColumnSize(i) > 0 && s != 1 {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 20, Values: nil}
	_ = rng
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOrColumnsIsUnion(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := sortedUnique(aRaw)
		b := sortedUnique(bRaw)
		or := orRows(a, b)
		set := map[int32]bool{}
		for _, v := range a {
			set[v] = true
		}
		for _, v := range b {
			set[v] = true
		}
		if len(or) != len(set) {
			return false
		}
		for i, v := range or {
			if !set[v] {
				return false
			}
			if i > 0 && or[i-1] >= v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndColumnsIsIntersection(t *testing.T) {
	f := func(aRaw, bRaw []uint8) bool {
		a := sortedUnique(aRaw)
		b := sortedUnique(bRaw)
		and := andRows(a, b)
		inA := map[int32]bool{}
		for _, v := range a {
			inA[v] = true
		}
		want := 0
		for _, v := range b {
			if inA[v] {
				want++
			}
		}
		if len(and) != want {
			return false
		}
		for _, v := range and {
			if !inA[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// randomMatrix builds a rows x cols matrix where each entry is 1 with
// probability density.
func randomMatrix(rng *hashing.SplitMix64, rows, cols int, density float64) *Matrix {
	b := NewBuilder(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			if rng.Float64() < density {
				b.Set(r, c)
			}
		}
	}
	return b.Build()
}

func sortedUnique(raw []uint8) []int32 {
	seen := map[int32]bool{}
	for _, v := range raw {
		seen[int32(v)] = true
	}
	out := make([]int32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	insertionSortInt32(out)
	return out
}

func matricesEqual(a, b *Matrix) bool {
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		return false
	}
	for c := 0; c < a.NumCols(); c++ {
		ca, cb := a.Column(c), b.Column(c)
		if len(ca) != len(cb) {
			return false
		}
		for i := range ca {
			if ca[i] != cb[i] {
				return false
			}
		}
	}
	return true
}

// orRows is the sorted row set of the induced column a ∨ b (Section 7),
// freshly allocated.
func orRows(a, b []int32) []int32 {
	or := slices.Concat(a, b)
	slices.Sort(or)
	return slices.Compact(or)
}

// andRows is the sorted row set of the induced column a ∧ b; nil when
// it is empty.
func andRows(a, b []int32) []int32 {
	var and []int32
	for _, r := range a {
		if _, ok := slices.BinarySearch(b, r); ok {
			and = append(and, r)
		}
	}
	return and
}

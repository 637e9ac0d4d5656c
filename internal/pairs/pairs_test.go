package pairs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMakeCanonical(t *testing.T) {
	if p := Make(5, 2); p.I != 2 || p.J != 5 {
		t.Errorf("Make(5,2) = %+v", p)
	}
	if p := Make(2, 5); p.I != 2 || p.J != 5 {
		t.Errorf("Make(2,5) = %+v", p)
	}
}

func TestMakePanicsOnSelfPair(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Make(3,3) did not panic")
		}
	}()
	Make(3, 3)
}

func TestSetDedup(t *testing.T) {
	s := NewSet(4)
	if !s.Add(1, 2) {
		t.Error("first Add returned false")
	}
	if s.Add(2, 1) {
		t.Error("swapped duplicate Add returned true")
	}
	if s.Add(1, 2) {
		t.Error("duplicate Add returned true")
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
	if !s.Contains(2, 1) {
		t.Error("Contains(2,1) false")
	}
	if s.Contains(1, 3) {
		t.Error("Contains(1,3) true")
	}
}

// TestSetSorted: a set's pairs sort by key into (I, J) order, scores
// travelling with them; Key and FromKey invert each other; and the Set
// itself keeps insertion order in Slice.
func TestSetSorted(t *testing.T) {
	s := NewSet(0)
	s.Add(3, 1)
	s.Add(0, 2)
	s.Add(1, 2)
	var got []Scored
	for _, p := range s.Slice() {
		if FromKey(p.Key()) != p {
			t.Errorf("FromKey(Key(%v)) = %v", p, FromKey(p.Key()))
		}
		got = append(got, Scored{Pair: p, Estimate: float64(p.I)})
	}
	SortByKey(got)
	want := []Pair{{0, 2}, {1, 2}, {1, 3}}
	for i := range want {
		if got[i].Pair != want[i] || got[i].Estimate != float64(want[i].I) {
			t.Fatalf("SortByKey = %v, want pairs %v with their estimates", got, want)
		}
	}
	if sl := s.Slice(); sl[0] != (Pair{1, 3}) {
		t.Errorf("Slice[0] = %v: insertion order lost", sl[0])
	}
}

func TestSortScored(t *testing.T) {
	ps := []Scored{
		{Pair: Pair{3, 4}, Exact: 0.5},
		{Pair: Pair{1, 2}, Exact: 0.9},
		{Pair: Pair{0, 2}, Exact: 0.5},
	}
	SortScored(ps)
	if ps[0].Exact != 0.9 {
		t.Errorf("first pair %+v", ps[0])
	}
	if ps[1].Pair != (Pair{0, 2}) || ps[2].Pair != (Pair{3, 4}) {
		t.Errorf("tie break wrong: %+v %+v", ps[1], ps[2])
	}
	_ = math.NaN() // keep math imported for future tolerance checks
}

func TestQuickSetAddIdempotent(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewSet(0)
		type entry struct{ a, b int32 }
		var added []entry
		for i := 0; i+1 < len(raw); i += 2 {
			a, b := int32(raw[i]), int32(raw[i+1])
			if a == b {
				continue
			}
			s.Add(a, b)
			added = append(added, entry{a, b})
		}
		for _, e := range added {
			if !s.Contains(e.a, e.b) || !s.Contains(e.b, e.a) {
				return false
			}
			if s.Add(e.a, e.b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

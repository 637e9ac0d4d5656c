package gen

import (
	"math"
	"testing"
)

func TestQuestValidation(t *testing.T) {
	bad := []QuestConfig{
		{Transactions: 0, Items: 100},
		{Transactions: 100, Items: 0},
		{Transactions: 100, Items: 100, NumPatterns: -1},
		{Transactions: 100, Items: 100, CorruptionMean: 1},
	}
	for i, cfg := range bad {
		if _, err := GenerateQuest(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestQuestShape(t *testing.T) {
	q, err := GenerateQuest(QuestConfig{Transactions: 5000, Items: 500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	m := q.Matrix
	if m.NumRows() != 5000 || m.NumCols() != 500 {
		t.Fatalf("dims %dx%d", m.NumRows(), m.NumCols())
	}
	// Mean basket size near T=10 (corruption trims inserts, so allow a
	// broad band).
	mean := float64(m.Ones()) / 5000
	if mean < 5 || mean > 20 {
		t.Errorf("mean basket size %v, want ~10", mean)
	}
	if len(q.Patterns) == 0 {
		t.Fatal("no patterns recorded")
	}
	for _, pat := range q.Patterns {
		if len(pat) < 2 {
			t.Errorf("pattern %v shorter than 2", pat)
		}
		for i := 1; i < len(pat); i++ {
			if pat[i-1] >= pat[i] {
				t.Errorf("pattern %v not sorted", pat)
			}
		}
	}
}

// TestQuestPatternsCoOccur: items of the same pattern must co-occur far
// more than independent items — the structure a-priori mines.
func TestQuestPatternsCoOccur(t *testing.T) {
	q, err := GenerateQuest(QuestConfig{Transactions: 20000, Items: 400, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	m := q.Matrix
	lifted, checked := 0, 0
	for _, pat := range q.Patterns[:5] { // the most frequent patterns
		for a := 0; a < len(pat); a++ {
			for b := a + 1; b < len(pat); b++ {
				i, j := int(pat[a]), int(pat[b])
				if m.ColumnSize(i) < 30 || m.ColumnSize(j) < 30 {
					continue
				}
				checked++
				expected := float64(m.ColumnSize(i)) * float64(m.ColumnSize(j)) / float64(m.NumRows())
				observed := float64(m.IntersectSize(i, j))
				if observed > 2*expected {
					lifted++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pattern pairs to check")
	}
	if float64(lifted) < 0.7*float64(checked) {
		t.Errorf("only %d/%d pattern pairs show lift > 2", lifted, checked)
	}
}

func TestQuestDeterministic(t *testing.T) {
	a, _ := GenerateQuest(QuestConfig{Transactions: 1000, Items: 200, Seed: 9})
	b, _ := GenerateQuest(QuestConfig{Transactions: 1000, Items: 200, Seed: 9})
	if a.Matrix.Ones() != b.Matrix.Ones() {
		t.Error("same seed produced different data")
	}
}

// TestQuestSupportsSkewed: pattern supports span a wide range, giving
// both a-priori-friendly frequent itemsets and a rare tail.
func TestQuestSupportsSkewed(t *testing.T) {
	q, err := GenerateQuest(QuestConfig{Transactions: 20000, Items: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m := q.Matrix
	var min, max = math.Inf(1), 0.0
	for c := 0; c < m.NumCols(); c++ {
		d := m.Density(c)
		if d == 0 {
			continue
		}
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max/min < 20 {
		t.Errorf("support skew max/min = %v, want > 20x", max/min)
	}
}

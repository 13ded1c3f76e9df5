package main

import "testing"

func series(base float64, deltas ...float64) []float64 {
	out := make([]float64, len(deltas))
	for i, d := range deltas {
		out[i] = base + d
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	// Parent: median 100, quartiles 99 and 101 (spread 2%).
	parent := series(100, -2, -1, -1, 0, 0, 0, 0, 1, 1, 2)
	cases := []struct {
		name        string
		change      []float64
		lowerBetter bool
		bound       float64
		want        verdict
	}{
		{"clear gain on a lower-is-better metric", series(90, -1, 0, 0, 1, -1, 0, 1, 0, 0, 1), true, 0.1, improved},
		{"same runs", parent, true, 0.1, unchanged},
		{"worse within the bound", series(105, -1, 0, 0, 1, -1, 0, 1, 0, 0, 1), true, 0.1, unchanged},
		{"worse beyond the bound", series(120, -1, 0, 0, 1, -1, 0, 1, 0, 0, 1), true, 0.1, regressed},
		{"higher-is-better drop beyond the bound", series(80, -1, 0, 0, 1, -1, 0, 1, 0, 0, 1), false, 0.1, regressed},
		{"higher-is-better gain", series(110, -1, 0, 0, 1, -1, 0, 1, 0, 0, 1), false, 0.1, improved},
		{"too few pairs to claim a gain", series(90, -1, 0, 1), true, 0.1, unchanged},
		{"parent spread wider than the bound", series(120, -1, 0, 0, 1, -1, 0, 1, 0, 0, 1), true, 0.01, unresolved},
	}
	for _, c := range cases {
		got, _, _ := judge(parent, c.change, c.lowerBetter, c.bound)
		if got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeCountsPairsWon(t *testing.T) {
	parent := []float64{10, 10, 10, 10}
	change := []float64{9, 10, 11, 9} // two wins, one tie, one loss
	_, wins, pairs := judge(parent, change, true, 0.2)
	if wins != 2 || pairs != 4 {
		t.Fatalf("wins %d of %d, want 2 of 4", wins, pairs)
	}
}

// A gain needs nine tenths of the pairs: eight of ten is not enough even
// when the medians differ by more than the parent's spread.
func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	parent := series(100, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1)
	change := series(90, 0, 0, 0, 0, 0, 0, 0, 0, 20, 20)
	if v, wins, _ := judge(parent, change, true, 0.25); v == improved {
		t.Fatalf("verdict improved with %d of 10 pairs won", wins)
	}
}

// When the parent's spread exceeds the bound, a change whose every run is
// better than every parent run is not unresolved.
func TestJudgeAllRunsBetterIsResolved(t *testing.T) {
	parent := []float64{100, 130, 80, 120, 90}
	change := []float64{70, 75, 72, 74, 71}
	if v, _, _ := judge(parent, change, true, 0.05); v == unresolved || v == regressed {
		t.Fatalf("verdict %s", v)
	}
}

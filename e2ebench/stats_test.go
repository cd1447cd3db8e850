package main

import (
	"math"
	"testing"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 1}, {10, 1}, {99, 1}, {100, 0.9}, {750, 0.9},
		{999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		q := tailQuantile(tc.n)
		if q != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, q, tc.want)
		}
		if q < 1 && beyond(tc.n, q) < minBeyond {
			t.Errorf("n=%d: p%v leaves %d beyond, want ≥ %d", tc.n, q*100, beyond(tc.n, q), minBeyond)
		}
	}
}

func TestGetTailFollowsTheRule(t *testing.T) {
	if q := tailQuantile(int(getRate * defaultSeconds)); q != getTailQ {
		t.Errorf("a %d s run takes %v GETs, whose tail is p%v, not p%v", defaultSeconds, getRate*defaultSeconds, q*100, getTailQ*100)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if got := quantile(xs, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := quantile(xs, 1); got != 100 {
		t.Errorf("max = %v, want 100", got)
	}
	if got := quantile(xs, 0.05); got != 5 {
		t.Errorf("p5 = %v, want 5", got)
	}
	tl := tailAt(xs, 0.9)
	if tl.Value != 90 || tl.N != 100 || tl.Beyond != 10 {
		t.Errorf("tailAt(p90) = %+v, want value 90, n 100, beyond 10", tl)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 100 {
		t.Error("quantile sorted its input in place")
	}
}

func TestAccuracyFormula(t *testing.T) {
	for _, tc := range []struct{ est, cap, want float64 }{
		{1e6, 1e6, 1},
		{0.9e6, 1e6, 0.9},
		{1.1e6, 1e6, 0.9},
		{0.5e6, 2e6, 0.25},
		{3e6, 1e6, -1},
	} {
		if got := accuracy(tc.est, tc.cap); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("accuracy(%v, %v) = %v, want %v", tc.est, tc.cap, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping count once", []interval{{10, 20}, {15, 30}}, 80},
		{"clipped to parent", []interval{{-10, 5}, {90, 120}}, 85},
		{"nested", []interval{{10, 50}, {20, 30}}, 60},
		{"outside", []interval{{200, 300}}, 100},
		{"covering", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestAdoptBuildsOneTreePerRound(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	root := tr.newID()
	tr.record(root, 0, 2, -1, "round", 0, 100)
	tr.record(0, root, 2, 0, "coord.post_exec", 40, 60)
	tr.record(0, 0, 2, 0, "coord.on_snapshot", 60, 90)
	tr.record(0, 0, 2, 0, "store.append", 45, 50) // inside post_exec
	tr.record(0, 0, 2, -1, "obs.publish", 70, 75) // inside on_snapshot
	tr.record(0, 0, 2, 1, "store.append", 45, 50) // other column: no enclosing span
	tr.adopt()
	spans := tr.finish()
	byName := func(name string, col int) span {
		for _, s := range spans {
			if s.Name == name && s.Col == col {
				return s
			}
		}
		t.Fatalf("no %s span for column %d", name, col)
		return span{}
	}
	post, snap := byName("coord.post_exec", 0), byName("coord.on_snapshot", 0)
	if got := byName("store.append", 0).Parent; got != post.ID {
		t.Errorf("store.append parent = %d, want post_exec %d", got, post.ID)
	}
	if got := byName("obs.publish", -1).Parent; got != snap.ID {
		t.Errorf("obs.publish parent = %d, want on_snapshot %d", got, snap.ID)
	}
	if snap.Parent != root || byName("store.append", 1).Parent != root {
		t.Error("phase spans and orphans must hang off the round root")
	}
	if post.Self != 15 || snap.Self != 25 || byName("round", -1).Self != 50 {
		t.Errorf("self times post=%d snap=%d round=%d, want 15, 25, 50", post.Self, snap.Self, byName("round", -1).Self)
	}
}

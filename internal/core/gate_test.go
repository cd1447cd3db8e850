package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waiting reports whether an allocation is parked on the gate.
func (g *TeamGate) waiting() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.released != nil
}

func waitForWaiter(t *testing.T, g *TeamGate) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !g.waiting() {
		if time.Now().After(deadline) {
			t.Fatal("no allocation ever waited on the gate")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTeamGateWaitsForInFlightRelease(t *testing.T) {
	team := []*Measurer{{Name: "m", CapacityBps: 1e9, Cores: 1}}
	p := DefaultParams()
	var g TeamGate
	held, err := g.allocate(context.Background(), team, 800e6, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		alloc Allocation
		err   error
	}
	got := make(chan result, 1)
	go func() {
		a, err := g.allocate(context.Background(), team, 500e6, 0, p)
		got <- result{a, err}
	}()
	waitForWaiter(t, &g)
	select {
	case r := <-got:
		t.Fatalf("allocation returned while capacity was held: %+v", r)
	default:
	}
	g.release(team, held)
	r := <-got
	if r.err != nil {
		t.Fatalf("allocation after release: %v", r.err)
	}
	if r.alloc.TotalBps != 500e6 || team[0].CommittedBps != 500e6 {
		t.Fatalf("allocated %v, committed %v; want 500e6 each", r.alloc.TotalBps, team[0].CommittedBps)
	}
	g.release(team, r.alloc)
	if team[0].CommittedBps != 0 || g.inFlight != 0 {
		t.Fatalf("after releases: committed %v, in flight %d", team[0].CommittedBps, g.inFlight)
	}
}

// A shortfall with nothing in flight through the gate can never clear by
// waiting, so it fails at once.
func TestTeamGateFailsWithNothingInFlight(t *testing.T) {
	team := []*Measurer{{Name: "m", CapacityBps: 1e9, CommittedBps: 900e6, Cores: 1}}
	var g TeamGate
	if _, err := g.allocate(context.Background(), team, 500e6, 0, DefaultParams()); !errors.Is(err, ErrInsufficientCapacity) {
		t.Fatalf("got %v, want ErrInsufficientCapacity", err)
	}
}

func TestTeamGateWaitEndsWithContext(t *testing.T) {
	team := []*Measurer{{Name: "m", CapacityBps: 1e9, Cores: 1}}
	p := DefaultParams()
	var g TeamGate
	held, err := g.allocate(context.Background(), team, 800e6, 0, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := g.allocate(ctx, team, 500e6, 0, p)
		errc <- err
	}()
	waitForWaiter(t, &g)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	g.release(team, held)
	if team[0].CommittedBps != 0 {
		t.Fatalf("committed %v after release, want 0", team[0].CommittedBps)
	}
}

// holdingBackend routes each target to its own fakeBackend; the "hog"
// target's slot runs until release is closed.
type holdingBackend struct {
	targets map[string]*fakeBackend
	release chan struct{}
}

func (h *holdingBackend) RunMeasurement(ctx context.Context, target string, alloc Allocation, seconds int, sink SampleSink) (MeasurementData, error) {
	if target == "hog" {
		<-h.release
	}
	return h.targets[target].RunMeasurement(ctx, target, alloc, seconds, sink)
}

// TestMeasureRelayGuardedWaitsOutCollision pins that a doubling step
// colliding with a concurrent measurement's allocation waits for it and
// carries on from where the loop stood, instead of failing the relay
// mid-loop and so discarding the attempts already made.
func TestMeasureRelayGuardedWaitsOutCollision(t *testing.T) {
	p := DefaultParams()
	team := []*Measurer{{Name: "m", CapacityBps: 1e9, Cores: 1}}
	backend := &holdingBackend{
		targets: map[string]*fakeBackend{"hog": {capacityBps: 100e6}, "r": {capacityBps: 300e6}},
		release: make(chan struct{}),
	}
	var g TeamGate
	hogDone := make(chan error, 1)
	go func() {
		// The hog's slot holds 600 Mbit/s of the team's 1 Gbit/s.
		_, err := MeasureRelayGuarded(context.Background(), backend, team, &g, "hog", 600e6/p.ExcessFactor(), p)
		hogDone <- err
	}()
	for {
		g.mu.Lock()
		holding := g.inFlight > 0
		g.mu.Unlock()
		if holding {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// r starts from a low prior; its acceptable allocation exceeds the
	// 400 Mbit/s the hog leaves.
	rDone := make(chan struct{})
	var out MeasureOutcome
	var rErr error
	go func() {
		defer close(rDone)
		out, rErr = MeasureRelayGuarded(context.Background(), backend, team, &g, "r", 20e6, p)
	}()
	waitForWaiter(t, &g)
	close(backend.release)
	<-rDone
	if err := <-hogDone; err != nil {
		t.Fatalf("hog: %v", err)
	}
	if rErr != nil {
		t.Fatalf("r: %v", rErr)
	}
	if !out.Conclusive {
		t.Fatalf("r not conclusive: %+v", out.Attempts)
	}
	allocs := backend.targets["r"].allocsSeen
	for i := 1; i < len(allocs); i++ {
		if allocs[i] < min(allocs[i-1]*1.99, TeamCapacityBps(team)) {
			t.Fatalf("doubling loop restarted or stalled: allocations %v", allocs)
		}
	}
	if len(allocs) != len(out.Attempts) || allocs[len(allocs)-1] <= 400e6 {
		t.Fatalf("allocations %v over %d attempts: the last should exceed the hog's leftover", allocs, len(out.Attempts))
	}
	if team[0].CommittedBps != 0 {
		t.Fatalf("committed %v after both measurements, want 0", team[0].CommittedBps)
	}
}

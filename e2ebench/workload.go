package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
)

// spec describes one workload: the deployment it builds and how rounds
// run on it.
type spec struct {
	name string
	why  string
	// columns is the number of BWAuths; each runs its own coordinator and
	// submits its signed view to the merge node, which needs all of them
	// (MinViews = columns) before it publishes.
	columns int
	// wire selects loopback TCP wire.Targets; false selects the noise-free
	// core.SimBackend.
	wire bool
	// relays is the population size; capacities are log-spaced over
	// [loBps, hiBps] and placed on relay names by the seed.
	relays       int
	loBps, hiBps float64
	// churn is the share of relays replaced each round by new names whose
	// source prior is a quarter of their capacity.
	churn float64
	// workers is coord.Config.Workers per column.
	workers int
	// measurerBps is each of the two measurers' capacity.
	measurerBps float64
	// slotSeconds is Params.SlotSeconds and sockets Params.Sockets.
	slotSeconds int
	sockets     int
	// noSync turns off fsync in the file stores.
	noSync bool
}

// defaultSeconds is the run length BENCHMARK.json fixes.
const defaultSeconds = 30

// roundTailQ is the percentile round_s.tail reports. About 115 rounds of
// control-merge fit in a default-length run, which leaves at least ten
// beyond p90. The wire workloads fit 6 to 14 rounds, too few for any
// percentile to leave ten beyond, and report p90 as well: nearest rank
// makes it the slowest of 6 or 7 rounds and the second slowest of 14.
const roundTailQ = 0.9

// getRate is the open-loop /v3bw reader rate, and getTailQ the tail
// percentile of its latencies that the tail rule gives at the default run
// length: 25 GETs/s for 30 s is 750 samples, 75 of them beyond p90 and
// fewer than ten beyond p99.
const (
	getRate  = 25.0
	getTailQ = 0.9
)

// measurers is the team size of every column.
const measurers = 2

func workloads() []spec {
	procs := runtime.NumCPU()
	return []spec{
		{
			name:        "wire-churn",
			why:         "low-rate targets with churn: per-slot overhead, pool reuse, the doubling loop and retries dominate; little traffic",
			columns:     1,
			wire:        true,
			relays:      24,
			loBps:       2e6,
			hiBps:       50e6,
			churn:       1.0 / 8,
			workers:     24,
			measurerBps: 1e9,
			slotSeconds: 1,
			sockets:     4,
		},
		{
			name:        "wire-fast",
			why:         "a few Gbit/s targets with steady priors: cell crypto, target decrypt, pacer and echo verify dominate CPU",
			columns:     1,
			wire:        true,
			relays:      4,
			loBps:       1e9,
			hiBps:       2e9,
			workers:     procs,
			measurerBps: 20e9,
			slotSeconds: 1,
			sockets:     16,
		},
		{
			name:        "control-merge",
			why:         "three 6,000-relay sim columns merged over rpc: schedule, aggregate, render, sign, verify, parse, merge, store, serve",
			columns:     3,
			relays:      6000,
			loBps:       1e6,
			hiBps:       500e6,
			workers:     procs,
			measurerBps: 5e9,
			slotSeconds: 1,
			sockets:     160,
			noSync:      true,
		},
	}
}

func lookupWorkload(name string) (spec, error) {
	var names []string
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// population is a workload's relays for one seed: names, configured
// capacities, and the churn stream.
type population struct {
	names []string
	caps  []float64 // capacity of the relay at each index
	gen   []int     // churn generation of the name at each index
	rng   *rand.Rand
}

// newPopulation places log-spaced capacities on relay indices in a
// seed-driven order.
func newPopulation(s spec, seed int64) *population {
	rng := rand.New(rand.NewSource(seed))
	p := &population{
		names: make([]string, s.relays),
		caps:  make([]float64, s.relays),
		gen:   make([]int, s.relays),
		rng:   rng,
	}
	perm := rng.Perm(s.relays)
	for i := 0; i < s.relays; i++ {
		frac := 0.0
		if s.relays > 1 {
			frac = float64(perm[i]) / float64(s.relays-1)
		}
		p.caps[i] = s.loBps * math.Pow(s.hiBps/s.loBps, frac)
		p.names[i] = relayName(i, 0)
	}
	return p
}

func relayName(i, gen int) string {
	if gen == 0 {
		return fmt.Sprintf("relay%05d", i)
	}
	return fmt.Sprintf("relay%05d-g%d", i, gen)
}

// churn replaces a seeded share of the relays with new names and returns
// the indices replaced. The choice is stratified by capacity — one relay
// from each of n equal capacity bands — so every round churns slow and
// fast relays alike and round times do not swing with the draw.
func (p *population) churn(share float64) []int {
	n := int(math.Round(share * float64(len(p.names))))
	if n == 0 {
		return nil
	}
	byCap := make([]int, len(p.names))
	for i := range byCap {
		byCap[i] = i
	}
	sort.Slice(byCap, func(a, b int) bool { return p.caps[byCap[a]] < p.caps[byCap[b]] })
	idx := make([]int, 0, n)
	for band := 0; band < n; band++ {
		lo, hi := band*len(byCap)/n, (band+1)*len(byCap)/n
		i := byCap[lo+p.rng.Intn(hi-lo)]
		p.gen[i]++
		p.names[i] = relayName(i, p.gen[i])
		idx = append(idx, i)
	}
	return idx
}

package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"

	"flashflow/internal/stats"
)

// Result is one scenario's measured throughput.
type Result struct {
	Scenario     string  `json:"scenario"`
	Cells        int64   `json:"cells"`
	Seconds      float64 `json:"seconds"`
	CellsPerSec  float64 `json:"cells_per_sec"`
	MBPerSec     float64 `json:"mb_per_sec"`
	AllocsPerOp  float64 `json:"allocs_per_cell"`
	BytesPerCell float64 `json:"bytes_per_cell"`
	// Extra carries scenario-specific metrics (e.g. the coord-round-abort
	// slot-second comparison). Compare ignores it; it is reported for
	// humans and dashboards reading BENCH_wire.json.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the machine-readable output of a harness run.
type Report struct {
	Schema    int      `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	CPUs      int      `json:"cpus"`
	Procs     int      `json:"procs"`
	Quick     bool     `json:"quick"`
	UnixTime  int64    `json:"generated_unix"`
	Results   []Result `json:"results"`
}

// Options tunes a harness run.
type Options struct {
	// Quick shortens every scenario for CI smoke runs.
	Quick bool
	// Duration overrides the per-scenario measurement window (default 1s,
	// 500ms when Quick).
	Duration time.Duration
	// Relays is the coord-round population size (default 200, 50 when
	// Quick).
	Relays int
	// Repeat runs each scenario this many times and keeps the run with
	// the highest cells/sec (default 1). Best-of-N damps scheduler and
	// loopback noise, which matters when a CI gate compares short quick
	// windows against a baseline.
	Repeat int
	// Transport selects the data plane for the wire-echo scenarios:
	// "" or "tcp" (the default, what the committed baseline records) or
	// "udp" to push measurement cells over loopback datagrams instead.
	// wire-echo-udp always runs UDP regardless of this setting.
	Transport string
}

func (o Options) window() time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	// Quick windows are kept long enough that handshake amortization and
	// scheduler noise don't dominate: shorter windows made the CI gate
	// flake at the 20% threshold.
	if o.Quick {
		return 500 * time.Millisecond
	}
	return time.Second
}

func (o Options) relays() int {
	if o.Relays > 0 {
		return o.Relays
	}
	if o.Quick {
		return 50
	}
	return 200
}

// Scenario is a named throughput workload.
type Scenario struct {
	Name string
	Desc string
	Run  func(Options) (Result, error)
}

// Scenarios returns the registered scenarios in canonical order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "cell-crypto", Desc: "raw cell.Circuit AES-CTR throughput, single stream", Run: runCellCrypto},
		{Name: "cell-crypto-span", Desc: "span decrypt (one cipher call per 32-cell span) raced against sequential per-payload calls; fails unless spans win", Run: runCellCryptoSpan},
		{Name: "cell-verify", Desc: "random-access keystream verification of echoed cells (measurer check path)", Run: runCellVerify},
		{Name: "wire-echo-single", Desc: "one measurement circuit over loopback TCP, unlimited rate", Run: runWireEchoSingle},
		{Name: "wire-echo-team", Desc: "two-measurer team, one multiplexed connection each, one target", Run: runWireEchoTeam},
		{Name: "wire-echo-mux", Desc: "eight circuits multiplexed on a single connection, unlimited rate", Run: runWireEchoMux},
		{Name: "wire-echo-udp", Desc: "wire-echo-mux over the UDP data plane (TCP control, loopback datagrams) with loss accounting", Run: runWireEchoUDP},
		{Name: "coord-round", Desc: "coordinator scheduling round over a simulated relay population", Run: runCoordRound},
		{Name: "coord-round-abort", Desc: "slot-seconds saved by §4.2 early abort vs fixed-length slots, undersized priors", Run: runCoordRoundAbort},
		{Name: "schedule-build-100k", Desc: "indexed §4.3 schedule construction, 100k relays × 3 BWAuths, vs seed reference", Run: runScheduleBuild100k},
		{Name: "schedule-build-1m", Desc: "indexed §4.3 schedule construction, 1M relays × 3 BWAuths; fails under 10x the seed reference", Run: runScheduleBuild1M},
		{Name: "v3bw-roundtrip-1m", Desc: "streaming v3bw write + line-at-a-time parse of a 1M-entry bandwidth file", Run: runV3BWRoundtrip},
		{Name: "recover-warm-1m", Desc: "durable-state warm recovery (snapshot + WAL replay) of a 1M-relay coordinator; fails unless warm beats a cold v3bw re-parse", Run: runRecoverWarm},
		{Name: "adversary-matrix", Desc: "§5 attack × estimator robustness matrix; fails if FlashFlow advantage exceeds 1.4x", Run: runAdversaryMatrix},
		{Name: "serve-v3bw", Desc: "cached /v3bw GETs from the atomically swapped snapshot; fails if the handler allocates or re-renders", Run: runServeV3BW},
	}
}

// UnknownScenarioError reports a requested scenario name that is not
// registered; Available lists the valid names so callers (cmd/bench) can
// print them instead of leaving the operator to guess.
type UnknownScenarioError struct {
	Name      string
	Available []string
}

func (e *UnknownScenarioError) Error() string {
	return fmt.Sprintf("perf: unknown scenario %q", e.Name)
}

// Run executes the named scenarios (all when names is empty) and
// assembles a Report.
func Run(names []string, opts Options) (Report, error) {
	all := Scenarios()
	selected := all
	if len(names) > 0 {
		byName := make(map[string]Scenario, len(all))
		avail := make([]string, len(all))
		for i, s := range all {
			byName[s.Name] = s
			avail[i] = s.Name
		}
		selected = selected[:0]
		for _, n := range names {
			s, ok := byName[n]
			if !ok {
				return Report{}, &UnknownScenarioError{Name: n, Available: avail}
			}
			selected = append(selected, s)
		}
	}
	rep := Report{
		Schema:    1,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Procs:     runtime.GOMAXPROCS(0),
		Quick:     opts.Quick,
		UnixTime:  time.Now().Unix(),
	}
	repeat := opts.Repeat
	if repeat < 1 {
		repeat = 1
	}
	for _, s := range selected {
		var best Result
		for i := 0; i < repeat; i++ {
			r, err := s.Run(opts)
			if err != nil {
				return Report{}, fmt.Errorf("perf: scenario %s: %w", s.Name, err)
			}
			if i == 0 || r.CellsPerSec > best.CellsPerSec {
				best = r
			}
		}
		best.Scenario = s.Name
		rep.Results = append(rep.Results, best)
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// LoadReport reads a report written by WriteJSON.
func LoadReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("perf: parse %s: %w", path, err)
	}
	return rep, nil
}

// result looks up a scenario's result in the report.
func (r Report) result(name string) (Result, bool) {
	for _, res := range r.Results {
		if res.Scenario == name {
			return res, true
		}
	}
	return Result{}, false
}

// Regression describes one scenario that fell outside the allowed band of
// the baseline, either on throughput or on allocations per cell.
type Regression struct {
	Scenario   string
	Metric     string  // "cells_per_sec" or "allocs_per_cell"
	Baseline   float64 // baseline value of the metric
	Current    float64 // current value of the metric
	Ratio      float64 // current/baseline (throughput regressions only)
	Normalized bool    // whether machine-speed normalization applied
}

// SuiteMedianScenario is the pseudo-scenario name Compare uses to report
// a regression broad enough to move the normalization median itself.
const SuiteMedianScenario = "suite-median"

func (g Regression) String() string {
	if g.Metric == "allocs_per_cell" {
		return fmt.Sprintf("%s: allocs/cell grew %.2f -> %.2f", g.Scenario, g.Baseline, g.Current)
	}
	if g.Scenario == SuiteMedianScenario {
		return fmt.Sprintf("suite-median: throughput across scenarios fell to %.2fx baseline (broad regression, or a much slower machine — refresh the baseline if intentional)", g.Ratio)
	}
	norm := ""
	if g.Normalized {
		norm = " (machine-normalized)"
	}
	return fmt.Sprintf("%s: %.0f -> %.0f cells/s, ratio %.2f%s", g.Scenario, g.Baseline, g.Current, g.Ratio, norm)
}

// allocSlack is the allowed growth in allocations per cell before the
// comparison fails. Steady-state paths sit at ~0; a full extra allocation
// per cell means a heap allocation crept back into the hot loop.
const allocSlack = 1.0

// minNormalizeScenarios is the smallest number of shared scenarios for
// which median normalization is meaningful; below it the comparison falls
// back to raw cells/sec ratios.
const minNormalizeScenarios = 3

// Compare checks current against baseline and returns the scenarios whose
// cells/sec ratio dropped below 1-maxRegress or whose allocations per
// cell grew by more than one. Scenarios missing from either report are
// skipped (CI may run a subset).
//
// When at least minNormalizeScenarios scenarios are shared, each
// scenario's throughput ratio is divided by the median ratio across all
// shared scenarios before the threshold check. A uniformly slower or
// faster machine (a different CI runner class, a contended host) moves
// every ratio together and the median cancels it, while a genuine
// regression in one or two scenarios stands out against the median of the
// rest. This is deliberately not anchored to any single reference
// scenario: a reference's own run-to-run noise would inject false
// regressions into every other scenario. Normalization is applied only in
// the slower direction (divisor capped at 1): a broadly *faster* run —
// quicker machine, or a PR that sped up most scenarios without refreshing
// the baseline — must never turn an untouched scenario into a reported
// regression.
//
// Normalization must not hide a regression broad enough to drag the
// median itself down (e.g. a crypto-path slowdown hits every scenario
// that does real cell work): when the median ratio is below the
// threshold, Compare reports a suite-wide regression in addition to any
// per-scenario ones. A machine legitimately that much slower than the
// baseline recorder needs its baseline refreshed rather than a silently
// passing gate.
func Compare(baseline, current Report, maxRegress float64) []Regression {
	type pair struct {
		base, cur Result
		ratio     float64
	}
	var pairs []pair
	for _, b := range baseline.Results {
		c, ok := current.result(b.Scenario)
		if !ok || b.CellsPerSec <= 0 {
			continue
		}
		pairs = append(pairs, pair{base: b, cur: c, ratio: c.CellsPerSec / b.CellsPerSec})
	}

	normalize := len(pairs) >= minNormalizeScenarios
	medianRatio := 1.0
	if normalize {
		ratios := make([]float64, len(pairs))
		for i, p := range pairs {
			ratios[i] = p.ratio
		}
		medianRatio = stats.Median(ratios)
		if medianRatio <= 0 {
			normalize, medianRatio = false, 1.0
		}
	}
	// Normalize only in the slower direction. A median above 1 means the
	// current run is broadly faster — a quicker machine or a PR that
	// improved most scenarios without refreshing the baseline; dividing an
	// untouched scenario's ratio of ~1.0 by that elevated median would
	// manufacture a regression out of someone else's improvement.
	divisor := medianRatio
	if divisor > 1 {
		divisor = 1
	}

	var regs []Regression
	if normalize && medianRatio < 1-maxRegress {
		regs = append(regs, Regression{
			Scenario: SuiteMedianScenario,
			Metric:   "cells_per_sec",
			Baseline: 1,
			Current:  medianRatio,
			Ratio:    medianRatio,
		})
	}
	for _, p := range pairs {
		if p.cur.AllocsPerOp > p.base.AllocsPerOp+allocSlack {
			regs = append(regs, Regression{
				Scenario: p.base.Scenario,
				Metric:   "allocs_per_cell",
				Baseline: p.base.AllocsPerOp,
				Current:  p.cur.AllocsPerOp,
			})
		}
		ratio := p.ratio / divisor
		if ratio < 1-maxRegress {
			regs = append(regs, Regression{
				Scenario:   p.base.Scenario,
				Metric:     "cells_per_sec",
				Baseline:   p.base.CellsPerSec,
				Current:    p.cur.CellsPerSec,
				Ratio:      ratio,
				Normalized: normalize,
			})
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Ratio < regs[j].Ratio })
	return regs
}

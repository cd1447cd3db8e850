package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jm `json:"end_to_end"`
		PerLayer []jm `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []jm, want []metric, bounds bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %s/%s/%s, code %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounds && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s: bound differs from code's %v", m.name, m.bound)
			}
			if !bounds && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}

// TestAttributeCPUChargesInnermostModule profiles real cell crypto and
// expects the samples charged to the cell layer.
func TestAttributeCPUChargesInnermostModule(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	km := cell.DeriveKeys([]byte("e2ebench attribution test"))
	cs, err := cell.NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		cs.ApplyBytes(payload)
	}
	pprof.StopCPUProfile()
	got, err := attributeCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ns := range got {
		total += ns
	}
	if total == 0 {
		t.Skip("profile has no samples")
	}
	if got["cell"] < total/2 {
		t.Errorf("cell layer got %d of %d ns: %v", got["cell"], total, got)
	}
}

// smoke shrinks a workload so one run takes seconds.
func smoke(t *testing.T, name string, relays int) spec {
	t.Helper()
	s, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() && s.wire {
		t.Skip("wire slots run in real time")
	}
	s.relays = relays
	if s.workers > relays {
		s.workers = relays
	}
	return s
}

func smokeRun(t *testing.T, s spec, seed int64, traced bool) *runResult {
	t.Helper()
	goroutines, fds := runtime.NumGoroutine(), openFDs()
	res, err := runWorkload(s, seed, time.Second, traced, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.problems {
		t.Error(p)
	}
	if g, f := settle(goroutines, fds); g > goroutines || f > fds {
		t.Errorf("teardown left %d goroutines (start %d), %d fds (start %d)", g, goroutines, f, fds)
	}
	defs, values := endToEnd, map[string]float64(nil)
	if traced {
		defs, values = perLayer, perLayerValues(res)
	} else {
		values = endToEndValues(res)
	}
	for _, m := range defs {
		x, ok := values[m.name]
		if !traced && (!ok || x <= 0) {
			t.Errorf("%s = %v, want a positive measurement", m.name, x)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Errorf("%s = %v", m.name, x)
		}
	}
	if attempted, failed := counts(res); attempted == 0 || failed != 0 {
		t.Errorf("attempted %d, failed %d", attempted, failed)
	}
	return res
}

func TestSmokeWireChurn(t *testing.T) {
	s := smoke(t, "wire-churn", 8)
	smokeRun(t, s, 1, false)
}

func TestSmokeWireFastTraced(t *testing.T) {
	s := smoke(t, "wire-fast", 2)
	res := smokeRun(t, s, 1, true)
	ids := make(map[uint64]bool)
	for _, sp := range res.spans {
		ids[sp.ID] = true
	}
	for _, sp := range res.spans {
		if sp.Name != "round" && !ids[sp.Parent] {
			t.Errorf("span %s (round %d) has no parent in the trace", sp.Name, sp.Round)
		}
	}
	if len(res.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// TestSmokeControlMergeDeterministic runs the merge workload twice on one
// seed: each run already compares two deployments' first merged bodies,
// and the runs must agree with each other too.
func TestSmokeControlMergeDeterministic(t *testing.T) {
	s := smoke(t, "control-merge", 300)
	a := smokeRun(t, s, 7, false)
	b := smokeRun(t, s, 7, true)
	if a.digest == "" || a.digest != b.digest {
		t.Errorf("round-1 merged bodies differ across runs of one seed: %s vs %s", a.digest, b.digest)
	}
}

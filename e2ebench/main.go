// Command e2ebench is the repository's end-to-end benchmark. It builds a
// complete FlashFlow deployment in one process — BWAuth coordinators over
// loopback wire targets or the noise-free simulator, signed views
// submitted over the authenticated RPC to a dirauth merge node, the
// merged bandwidth file served on /v3bw — and measures rounds from the
// outside: from the coordinator asking for the relay population to the
// merged /v3bw read back over HTTP.
//
// Usage:
//
//	bash e2ebench/run.sh --workload wire-churn|wire-fast|control-merge \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it
// records spans at each layer's seams and a CPU profile, and prints the
// per-layer metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// buildDir is the checkout-relative directory for state, spans and
// reports; run.sh builds the binary there too.
const buildDir = ".bench_build"

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload name: wire-churn, wire-fast or control-merge")
	seed := flag.Int64("seed", 1, "seed for capacity placement, churn and backend seeds")
	secs := flag.Int("seconds", defaultSeconds, "measurement window in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	s, err := lookupWorkload(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if *secs <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// Use a socket once so the runtime's poller descriptors exist before
	// the leak baseline is taken.
	if l, err := net.Listen("tcp", "127.0.0.1:0"); err == nil {
		l.Close()
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs()

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	res, err := runWorkload(s, *seed, time.Duration(*secs)*time.Second, *traced == 1, dir)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if g, f := settle(goroutines, fds); g > goroutines || f > fds {
		res.fail("teardown left %d goroutines (start %d) and %d open fds (start %d)", g, goroutines, f, fds)
	}

	defs, values := endToEnd, map[string]float64(nil)
	if res.traced {
		defs, values = perLayer, perLayerValues(res)
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", s.name, *seed))
		if err := writeSpans(path, res.spans); err != nil {
			res.fail("write spans: %v", err)
		}
	} else {
		values = endToEndValues(res)
	}
	printDetails(res)
	if err := writeReport(filepath.Join(buildDir, "report", fmt.Sprintf("%s-seed%d-trace%d.json", s.name, *seed, *traced)), res, values); err != nil {
		res.fail("write report: %v", err)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, m := range defs {
		x := values[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			fmt.Fprintf(os.Stderr, "e2ebench: metric %s is %v\n", m.name, x)
			return 1
		}
		metrics[m.name] = value{x, m.unit}
	}
	attempted, failed := counts(res)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, attempted, failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// printDetails prints what the metrics line leaves out: the run's shape,
// the percentile and sample count behind every tail, and any failed check.
func printDetails(res *runResult) {
	traced := 0
	for _, rr := range res.rounds {
		if rr.traced {
			traced++
		}
	}
	fmt.Printf("e2ebench: workload=%s seed=%d rounds=%d traced=%d warmup_round_s=%.3f\n",
		res.s.name, res.seed, len(res.rounds), traced, seconds(res.warmup.end-res.warmup.start))
	rt := tailAt(roundSeconds(res.rounds), roundTailQ)
	gt := tailAt(res.loop.latencies, getTailQ)
	fmt.Printf("e2ebench: round_s.tail=p%g n=%d beyond=%d; v3bw_get_s.tail=p%g n=%d beyond=%d; get_failed=%d\n",
		rt.Q*100, rt.N, rt.Beyond, gt.Q*100, gt.N, gt.Beyond, res.loop.failed)
	if res.digest != "" {
		fmt.Printf("e2ebench: round-1 merged body sha256=%s\n", res.digest)
	}
	for _, p := range res.problems {
		fmt.Println("e2ebench: CHECK FAILED:", p)
	}
}

// writeReport saves the run's per-round timings, setup times, latency
// percentiles and metrics, for reading a run after the fact.
func writeReport(path string, res *runResult, values map[string]float64) error {
	type round struct {
		Round     int     `json:"round"`
		Traced    bool    `json:"traced"`
		RoundS    float64 `json:"round_s"`
		CycleS    float64 `json:"cycle_s"`
		Published int     `json:"published"`
		Retries   int     `json:"retries"`
		Slots     int     `json:"slots"`
	}
	doc := struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		SetupS   []float64          `json:"setup_s"`
		Rounds   []round            `json:"rounds"`
		GetS     map[string]float64 `json:"v3bw_get_s"`
		Problems []string           `json:"problems"`
		Metrics  map[string]float64 `json:"metrics"`
	}{Workload: res.s.name, Seed: res.seed, SetupS: res.setups, Problems: res.problems, Metrics: values,
		GetS: make(map[string]float64)}
	for _, rr := range res.rounds {
		r := round{Round: rr.round, Traced: rr.traced, RoundS: seconds(rr.end - rr.start),
			CycleS: seconds(rr.cycleEnd - rr.start), Published: rr.published}
		for _, cr := range rr.cols {
			r.Retries += cr.rep.Retries
			r.Slots += cr.slots
		}
		doc.Rounds = append(doc.Rounds, r)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 1} {
		doc.GetS[fmt.Sprintf("p%g", q*100)] = quantile(res.loop.latencies, q)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// settleFor bounds how long teardown may take to return goroutines and
// descriptors to their starting counts.
const settleFor = 5 * time.Second

// settle waits up to settleFor for the goroutine and descriptor
// counts to fall back to their starting values, and returns the last
// counts seen.
func settle(goroutines, fds int) (int, int) {
	deadline := time.Now().Add(settleFor)
	for {
		g, f := runtime.NumGoroutine(), openFDs()
		if (g <= goroutines && f <= fds) || time.Now().After(deadline) {
			return g, f
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs() int {
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0
	}
	return len(ents)
}

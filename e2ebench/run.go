package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"flashflow/internal/dirauth"
)

// setupReps is how many times a run builds its deployment; setup_s is the
// median. All but the last are torn down again before any measuring.
const setupReps = 21

// roundTimeout bounds one round; a round that takes longer fails the run.
const roundTimeout = 60 * time.Second

// minRounds is the fewest measured rounds a run takes, however short
// --seconds is.
const minRounds = 3

// runResult is everything a run measured, before it is reduced to the
// reported metrics.
type runResult struct {
	s        spec
	seed     int64
	traced   bool
	setups   []float64
	warmup   *roundRec
	rounds   []*roundRec // measured rounds, in order
	heapPeak uint64
	cpuNs    int64
	mem0     runtime.MemStats
	mem1     runtime.MemStats
	pool     [2]int64 // pool hits, misses over the window
	loop     *openLoop
	cpu      map[string]int64 // profile CPU ns per layer (traced runs)
	spans    []span
	stateMB  float64
	digest   string // SHA-256 of the first round's merged body
	problems []string
}

func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// runWorkload sets the deployment up setupReps times, runs a warm-up round
// and then measured rounds back to back until the next round would end
// past the measurement window, and tears everything down.
func runWorkload(s spec, seed int64, window time.Duration, traced bool, dir string) (*runResult, error) {
	res := &runResult{s: s, seed: seed, traced: traced}
	tr := newTracer()
	var d *deployment
	for i := 0; i < setupReps; i++ {
		// Each set-up starts from a collected heap, so garbage from the
		// previous one is not charged to it.
		runtime.GC()
		start := time.Now()
		dep, err := newDeployment(s, seed, tr, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, time.Since(start).Seconds())
		if i == setupReps-1 {
			d = dep
			break
		}
		if i == 0 && !s.wire {
			// A second deployment of the same seed must publish the same
			// first merged body: the sim is noise-free, so any difference
			// is nondeterminism in the control plane.
			rr, err := runRound(dep, 1)
			if err == nil {
				res.digest = digest(rr.body)
			}
			dep.close()
			if err != nil {
				return nil, fmt.Errorf("determinism round: %w", err)
			}
			continue
		}
		dep.close()
	}
	defer d.close()

	warm, err := runRound(d, 1)
	if err != nil {
		return nil, fmt.Errorf("warm-up round: %w", err)
	}
	res.warmup = warm
	if res.digest != "" && res.digest != digest(warm.body) {
		res.fail("round 1 merged body differs between two deployments of seed %d", seed)
	}
	verifyRound(d, res, warm)

	loop := newOpenLoop(d.url, getRate, runtime.NumCPU())
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&res.mem0)
	hits0, misses0 := d.poolStats()
	cpu0 := cpuTime()
	begin := time.Now()
	loop.start()
	for k := 2; ; k++ {
		tr.on.Store(traced && k%2 == 0)
		rr, err := runRound(d, k)
		tr.on.Store(false)
		if err != nil {
			loop.halt()
			if traced {
				pprof.StopCPUProfile()
			}
			return nil, fmt.Errorf("round %d: %w", k, err)
		}
		res.rounds = append(res.rounds, rr)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.heapPeak = max(res.heapPeak, ms.HeapInuse)
		verifyRound(d, res, rr)
		// Stop when another round like this one would end past the window.
		cycle := time.Duration(rr.cycleEnd - rr.start)
		if len(res.rounds) >= minRounds && time.Since(begin)+cycle > window {
			break
		}
	}
	loop.halt()
	res.cpuNs = cpuTime() - cpu0
	hits1, misses1 := d.poolStats()
	res.pool = [2]int64{hits1 - hits0, misses1 - misses0}
	runtime.ReadMemStats(&res.mem1)
	if traced {
		pprof.StopCPUProfile()
		if res.cpu, err = attributeCPU(prof.Bytes()); err != nil {
			return nil, err
		}
		recordPhases(tr, res.rounds)
		res.spans = tr.finish()
	}
	res.loop = loop
	for _, name := range []string{"coord_anomaly_echo_failures", "coord_anomaly_clamped_seconds"} {
		var n int64
		for _, col := range d.cols {
			n += col.counters.Get(name)
		}
		if n != 0 {
			res.fail("honest targets raised §5 anomalies: %s = %d", name, n)
		}
	}
	res.stateMB = float64(dirBytes(d.dir)) / (1 << 20)
	return res, nil
}

// runRound runs round k on every column at once and returns when the
// merged /v3bw for round k has been read back and every coordinator has
// finished the round.
func runRound(d *deployment, k int) (*roundRec, error) {
	if k > 1 && d.s.churn > 0 {
		d.setChurn(d.pop.churn(d.s.churn))
	}
	rr := newRoundRec(k, len(d.cols), d.tr.on.Load())
	d.cur.Store(rr)
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	errs := make([]error, len(d.cols))
	done := make(chan struct{})
	go func() {
		defer close(done)
		finished := make(chan int, len(d.cols))
		for i, col := range d.cols {
			go func() {
				errs[i] = col.c.Run(ctx)
				finished <- i
			}()
		}
		for range d.cols {
			<-finished
		}
	}()

	merged := 0
	select {
	case merged = <-d.merged:
	case <-done:
		select {
		case merged = <-d.merged:
		default:
		}
	case <-ctx.Done():
	}
	if merged == k {
		rr.getStart = d.tr.now()
		rr.body, rr.getErr = fetch(d.get, d.url)
		rr.end = d.tr.now()
		d.tr.record(0, 0, k, -1, "http.get", rr.getStart, rr.end)
	}
	<-done
	for _, col := range d.cols {
		if col.pool != nil {
			col.pool.Prune()
		}
	}
	rr.cycleEnd = d.tr.now()
	for i, cr := range rr.cols {
		if i == 0 || cr.srcAt < rr.start {
			rr.start = cr.srcAt
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if merged != k {
		return nil, fmt.Errorf("no complete merge for round %d (last full merge %d)", k, merged)
	}
	return rr, nil
}

func fetch(c *http.Client, url string) ([]byte, error) {
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v3bw: %s", resp.Status)
	}
	return body, nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// verifyRound checks a round's published body: it parses, it is the
// median merge of the views the columns submitted, byte for byte, and it
// lists every relay whose last attempt this round was conclusive.
func verifyRound(d *deployment, res *runResult, rr *roundRec) {
	defer rr.release()
	if rr.getErr != nil {
		res.fail("round %d: GET /v3bw: %v", rr.round, rr.getErr)
		return
	}
	got, err := dirauth.ParseV3BW(bytes.NewReader(rr.body))
	if err != nil {
		res.fail("round %d: published body does not parse: %v", rr.round, err)
		return
	}
	views := make([]*dirauth.BandwidthFile, 0, len(rr.cols))
	var at time.Duration
	for i, cr := range rr.cols {
		if cr.submitErr != nil {
			res.fail("round %d: %s submission: %v", rr.round, d.cols[i].name, cr.submitErr)
			return
		}
		v, err := dirauth.ParseV3BW(bytes.NewReader(cr.body))
		if err != nil {
			res.fail("round %d: %s view does not parse: %v", rr.round, d.cols[i].name, err)
			return
		}
		views = append(views, v)
		at = max(at, v.At)
	}
	want, _, err := dirauth.MergeMedianFile("dirauth", at, views).Render()
	if err != nil || !bytes.Equal(want, rr.body) {
		res.fail("round %d: published body is not the median merge of the submitted views", rr.round)
	}
	measured := make(map[string]bool)
	for i, cr := range rr.cols {
		for relay := range cr.rep.Estimates {
			measured[relay] = true
		}
		for relay, ok := range cr.accepted {
			if _, listed := got.Entries[relay]; ok && !listed {
				res.fail("round %d: conclusive relay %s (%s) missing from /v3bw", rr.round, relay, d.cols[i].name)
			}
		}
	}
	// Accuracy and throughput count the relays this round measured and
	// published.
	for name, e := range got.Entries {
		if !measured[name] {
			continue
		}
		rr.published++
		if c, ok := d.capacity(name); ok {
			rr.acc = append(rr.acc, accuracy(e.CapacityBps, c))
		}
	}
}

// release drops what verification needed from the round record.
func (rr *roundRec) release() {
	rr.bodyLen = len(rr.body)
	rr.body = nil
	for _, cr := range rr.cols {
		cr.measured = len(cr.rep.Estimates)
		cr.rep.Estimates = nil
		cr.accepted = nil
		cr.body = nil
	}
}

// recordPhases adds each traced round's root span and its coordinator
// phase spans — pre-execute, execute and post-execute per column — to the
// trace; with the OnSnapshot and GET spans they tile the round, and adopt
// hangs every other span under them.
func recordPhases(tr *tracer, rounds []*roundRec) {
	tr.on.Store(true)
	defer tr.on.Store(false)
	for _, rr := range rounds {
		if !rr.traced {
			continue
		}
		root := tr.newID()
		tr.record(root, 0, rr.round, -1, "round", rr.start, rr.end)
		for i, cr := range rr.cols {
			tr.record(0, root, rr.round, i, "coord.pre_exec", cr.srcAt, cr.firstSlot)
			tr.record(0, root, rr.round, i, "coord.exec", cr.firstSlot, cr.lastSlotEnd)
			tr.record(0, root, rr.round, i, "coord.post_exec", cr.lastSlotEnd, cr.snapAt)
		}
	}
	tr.adopt()
}

// instrumented are the parts of a traced round some instrument covers:
// per column the pre-execute phase, every slot attempt, the post-execute
// phase and the OnSnapshot publication, plus the GET. What they leave of
// the round's wall time — retry backoff with no slot running, hand-offs
// between goroutines — is unattributed.
func instrumented(rr *roundRec) []interval {
	var ivs []interval
	for _, cr := range rr.cols {
		ivs = append(ivs, interval{cr.srcAt, cr.firstSlot})
		ivs = append(ivs, cr.slotIvs...)
		ivs = append(ivs, interval{cr.lastSlotEnd, cr.snapAt}, interval{cr.snapAt, cr.snapEnd})
	}
	return append(ivs, interval{rr.getStart, rr.end})
}

// capacity is the configured capacity of a relay name, current or churned
// away.
func (d *deployment) capacity(name string) (float64, bool) {
	d.nameMu.RLock()
	defer d.nameMu.RUnlock()
	i, ok := d.index[name]
	if !ok {
		return 0, false
	}
	return d.pop.caps[i], true
}

// poolStats sums the columns' connection-pool hits and misses.
func (d *deployment) poolStats() (hits, misses int64) {
	for _, col := range d.cols {
		if col.pool != nil {
			st := col.pool.Stats()
			hits += st.Hits
			misses += st.Misses
		}
	}
	return hits, misses
}

// cpuTime is the process's user+system CPU time in nanoseconds.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

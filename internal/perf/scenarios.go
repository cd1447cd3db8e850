package perf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"time"

	"flashflow/internal/cell"
	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/wire"
)

// memSnapshot captures the process allocation counters around a scenario
// so the report can state allocations per cell. Wire scenarios include
// handshake and goroutine-startup allocations, so their steady-state cost
// is amortized over the run — the hard 0 allocs/cell guarantee is pinned
// separately by the testing.AllocsPerRun guards in internal/cell and
// internal/wire.
type memSnapshot struct{ mallocs, bytes uint64 }

func readMem() memSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnapshot{mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// finish assembles a Result from totals.
func finish(cells int64, elapsed time.Duration, before, after memSnapshot) Result {
	sec := elapsed.Seconds()
	r := Result{
		Cells:   cells,
		Seconds: sec,
	}
	if sec > 0 {
		r.CellsPerSec = float64(cells) / sec
		r.MBPerSec = float64(cells) * cell.Size / 1e6 / sec
	}
	if cells > 0 {
		r.AllocsPerOp = float64(after.mallocs-before.mallocs) / float64(cells)
		r.BytesPerCell = float64(after.bytes-before.bytes) / float64(cells)
	}
	return r
}

// runCellCrypto measures raw single-stream AES-CTR cell throughput: the
// hardware ceiling every wire scenario is bounded by (§4.1 — the target
// must do this work for every measurement cell).
func runCellCrypto(opts Options) (Result, error) {
	circ, err := cell.NewCircuit(1, []byte("perf-cell-crypto"))
	if err != nil {
		return Result{}, err
	}
	buf := cell.GetBatch()
	defer cell.PutBatch(buf)
	payloads := make([][]byte, cell.BatchCells)
	for i := range payloads {
		payloads[i] = cell.PayloadOf((*buf)[i*cell.Size:])
	}

	window := opts.window()
	before := readMem()
	start := time.Now()
	var cells int64
	for time.Since(start) < window {
		for _, p := range payloads {
			circ.Forward.ApplyBytes(p)
		}
		cells += cell.BatchCells
	}
	return finish(cells, time.Since(start), before, readMem()), nil
}

// runCellVerify measures the measurer's echo-check cost: random-access
// keystream verification of echoed payloads (Keystream.VerifyAt). Cells
// travel with zero payloads, so the sender's per-cell work is a header
// write; what the measurer pays per *checked* cell is this verification,
// and at check probability p it scales the reader's budget by p × this
// scenario's per-cell cost.
func runCellVerify(opts Options) (Result, error) {
	km := cell.DeriveKeys([]byte("perf-cell-verify"))
	ks, err := cell.NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		return Result{}, err
	}
	// Build one batch of genuine echoes: zero payloads run through the
	// forward cipher, exactly what an honest target returns.
	circ, err := cell.NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		return Result{}, err
	}
	buf := cell.GetBatch()
	defer cell.PutBatch(buf)
	out := *buf
	for i := 0; i < cell.BatchCells; i++ {
		cb := out[i*cell.Size : (i+1)*cell.Size]
		cell.PutHeader(cb, 1, cell.MsmtData)
		clear(cell.PayloadOf(cb))
		circ.ApplyBytes(cell.PayloadOf(cb))
	}

	window := opts.window()
	before := readMem()
	start := time.Now()
	var cells int64
	for time.Since(start) < window {
		for i := 0; i < cell.BatchCells; i++ {
			cb := out[i*cell.Size : (i+1)*cell.Size]
			if !ks.VerifyAt(cell.PayloadOf(cb), uint64(i)*cell.PayloadSize) {
				return Result{}, errors.New("perf: keystream verification failed on honest echo")
			}
		}
		cells += cell.BatchCells
	}
	return finish(cells, time.Since(start), before, readMem()), nil
}

// echoConfig shapes one end-to-end echo scenario: how many measurers hit
// the target, each with how many multiplexed circuits, the check sampling
// rate, and which data plane carries the measurement cells.
type echoConfig struct {
	measurers  int
	socketsPer int
	checkProb  float64
	udp        bool
}

// echoScenario runs real Measure slots against an unlimited-rate loopback
// target and reports end-to-end echoed-cell throughput. On the UDP plane
// the Extra map carries the loss accounting (sent/lost cells) the stream
// plane cannot have.
func echoScenario(opts Options, cfg echoConfig) (Result, error) {
	if opts.Transport == "udp" {
		cfg.udp = true
	}
	ids := make([]wire.Identity, cfg.measurers)
	for i := range ids {
		id, err := wire.NewIdentity()
		if err != nil {
			return Result{}, err
		}
		ids[i] = id
	}
	tgt := wire.NewTarget(wire.TargetConfig{}) // RateBps 0: unlimited
	for _, id := range ids {
		tgt.Authorize(id.Pub)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Result{}, err
	}
	go tgt.Serve(l)
	defer func() {
		l.Close()
		tgt.Close()
	}()
	addr := l.Addr().String()
	dial := func() (net.Conn, error) { return net.Dial("tcp", addr) }
	var dialData wire.Dialer
	if cfg.udp {
		uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return Result{}, err
		}
		go tgt.ServeUDP(wire.NewUDPDatagramConn(uc))
		defer uc.Close()
		udpAddr := uc.LocalAddr().String()
		dialData = func() (net.Conn, error) { return net.Dial("udp", udpAddr) }
	}

	window := opts.window()
	before := readMem()
	start := time.Now()
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		total      float64
		sent, lost int64
		firstEr    error
	)
	for i := range ids {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			res, err := wire.Measure(context.Background(), dial, wire.MeasureOptions{
				Identity:  ids[idx],
				Sockets:   cfg.socketsPer,
				RateBps:   0, // unpaced: run as fast as the path allows
				Duration:  window,
				CheckProb: cfg.checkProb,
				Seed:      int64(idx + 1),
				DialData:  dialData,
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstEr == nil {
					firstEr = err
				}
				return
			}
			if res.Failed {
				if firstEr == nil {
					firstEr = errors.New("perf: echo verification failed against honest target")
				}
				return
			}
			for _, b := range res.PerSecondBytes {
				total += b
			}
			sent += res.SentCells
			lost += res.LostCells
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstEr != nil {
		return Result{}, firstEr
	}
	cells := int64(total / cell.Size)
	r := finish(cells, elapsed, before, readMem())
	if cfg.udp {
		lossFrac := 0.0
		if sent > 0 {
			lossFrac = float64(lost) / float64(sent)
		}
		r.Extra = map[string]float64{
			"sent_cells": float64(sent),
			"lost_cells": float64(lost),
			"loss_frac":  lossFrac,
		}
		// Some loopback loss under an unpaced firehose is physics; losing
		// most of the traffic means the plane is broken, not lossy.
		if lossFrac > 0.5 {
			return Result{}, fmt.Errorf("perf: udp echo lost %.0f%% of %d cells", lossFrac*100, sent)
		}
	}
	return r, nil
}

func runWireEchoSingle(opts Options) (Result, error) {
	return echoScenario(opts, echoConfig{measurers: 1, socketsPer: 1})
}

func runWireEchoTeam(opts Options) (Result, error) {
	return echoScenario(opts, echoConfig{measurers: 2, socketsPer: 4, checkProb: 0.01})
}

// runWireEchoMux stresses the multiplexed data plane: one measurer, one
// connection, eight concurrent circuits demuxed by CircID, with echo
// checks sampling at 1%. Compared to wire-echo-single it isolates the
// cost of circuit demux, sharded sending, and interleaved reassembly on
// a single socket.
func runWireEchoMux(opts Options) (Result, error) {
	return echoScenario(opts, echoConfig{measurers: 1, socketsPer: 8, checkProb: 0.01})
}

// runWireEchoUDP is wire-echo-mux over the datagram data plane: TCP
// control, UDP data, loopback. The Extra map reports the loss accounting;
// echoScenario fails the scenario outright if the plane loses most of its
// cells or verification fails.
func runWireEchoUDP(opts Options) (Result, error) {
	return echoScenario(opts, echoConfig{measurers: 1, socketsPer: 8, checkProb: 0.01, udp: true})
}

// runCellCryptoSpan races the span decrypt (one XORKeyStream per 32-cell
// span, scattered back per cell) against the sequential per-payload cipher
// calls of cell-crypto, interleaved within the window so scheduler and
// thermal drift hit both sides alike. The Result reports the span path;
// span_ratio is (span cells/s) / (sequential cells/s), and the scenario
// fails if the span path does not win — materializing keystream in
// cipher-sized runs instead of 509-byte calls is the whole optimization.
func runCellCryptoSpan(opts Options) (Result, error) {
	km := cell.DeriveKeys([]byte("perf-cell-crypto-span"))
	seqSt, err := cell.NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		return Result{}, err
	}
	spanSt, err := cell.NewCryptoState(km.ForwardKey, km.ForwardIV)
	if err != nil {
		return Result{}, err
	}
	buf := cell.GetSuper()
	defer cell.PutSuper(buf)
	arena := (*buf)[:cell.SuperBytes]
	payloads := make([][]byte, cell.SuperCells)
	offs := make([]int32, cell.SuperCells)
	for i := range offs {
		offs[i] = int32(i * cell.Size)
		payloads[i] = cell.PayloadOf(arena[i*cell.Size:])
	}
	scratch := cell.NewSpanScratch()

	window := opts.window()
	before := readMem()
	start := time.Now()
	var spanCells int64
	var seqDur, spanDur time.Duration
	for time.Since(start) < window {
		t0 := time.Now()
		for _, p := range payloads {
			seqSt.ApplyBytes(p)
		}
		t1 := time.Now()
		spanSt.ApplySpans(arena, offs, scratch)
		t2 := time.Now()
		seqDur += t1.Sub(t0)
		spanDur += t2.Sub(t1)
		spanCells += cell.SuperCells
	}
	after := readMem()
	if spanDur <= 0 || seqDur <= 0 {
		return Result{}, errors.New("perf: span scenario measured nothing")
	}
	res := finish(spanCells, spanDur, before, after)
	ratio := seqDur.Seconds() / spanDur.Seconds() // equal cells per side
	res.Extra = map[string]float64{"span_ratio": ratio}
	if ratio <= 1.0 {
		return Result{}, fmt.Errorf("perf: span decrypt %.3fx sequential, want >1x", ratio)
	}
	return res, nil
}

// instantBackend is a deterministic core.Backend whose measurements
// complete immediately: a target echoes min(capacity, allocation) for the
// slot, one streamed sample per simulated second. It isolates the
// coordinator's scheduling/aggregation throughput from wall-clock slot
// durations while still producing the full per-second data volume the
// real data plane would carry. Between simulated seconds it checks ctx —
// the §4.2 early abort cancels the slot exactly as it would on the wire —
// and it counts simulated slot-seconds both as emitted (what the
// streaming pipeline consumed) and as scheduled (what a fixed-length
// pipeline would have consumed), so the abort scenario can report the
// slot-seconds saved.
type instantBackend struct {
	capBps map[string]float64

	mu        sync.Mutex
	bytes     float64
	emitted   int64 // simulated seconds actually run
	scheduled int64 // simulated seconds a fixed-length slot would have run
	slots     int64 // measurement attempts executed
}

func (b *instantBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	capBps, ok := b.capBps[target]
	if !ok {
		return core.MeasurementData{}, fmt.Errorf("perf: unknown target %s", target)
	}
	b.mu.Lock()
	b.slots++
	b.scheduled += int64(seconds)
	b.mu.Unlock()
	echo := math.Min(capBps, alloc.TotalBps)
	series := make([]float64, 0, seconds)
	var total float64
	for j := 0; j < seconds; j++ {
		if err := ctx.Err(); err != nil {
			b.account(total, int64(j))
			return core.MeasurementData{MeasBytes: [][]float64{series}}, err
		}
		series = append(series, echo/8) // bytes per second
		total += echo / 8
		if sink != nil {
			sink(core.Sample{Second: j, MeasBytes: series[j : j+1]})
		}
	}
	b.account(total, int64(seconds))
	return core.MeasurementData{MeasBytes: [][]float64{series}}, nil
}

func (b *instantBackend) account(bytes float64, secs int64) {
	b.mu.Lock()
	b.bytes += bytes
	b.emitted += secs
	b.mu.Unlock()
}

func (b *instantBackend) total() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.bytes
}

func (b *instantBackend) slotSeconds() (emitted, scheduled, slots int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.emitted, b.scheduled, b.slots
}

// runAbortRound executes one full coordinator round over a mixed-capacity
// population whose priors are badly undersized (capacity/16), so every
// relay's §4.2 doubling loop needs several attempts before its allocation
// carries the excess factor. With early abort enabled the undersized
// attempts are cut off as soon as a majority of their seconds prove the
// estimate unacceptable; with it disabled every attempt runs its full
// SlotSeconds — the fixed-length baseline the refactor replaces.
func runAbortRound(opts Options, disableAbort bool) (*instantBackend, time.Duration, error) {
	n := opts.relays()
	caps := make(map[string]float64, n)
	var source coord.StaticRelays
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("relay-%03d", i)
		capBps := 5e6 + float64(i%40)*2.5e6 // 5–102.5 Mbit/s spread
		caps[name] = capBps
		source = append(source, core.RelayEstimate{Name: name, EstimateBps: capBps / 16})
	}
	backend := &instantBackend{capBps: caps}
	p := core.DefaultParams()
	p.SlotSeconds = 10
	p.DisableEarlyAbort = disableAbort
	team := []*core.Measurer{
		{Name: "m1", CapacityBps: 500e6, Cores: 4},
		{Name: "m2", CapacityBps: 500e6, Cores: 4},
	}
	auth := core.NewBWAuth("bw0", team, backend, p)
	c, err := coord.New(coord.Config{
		Params:      p,
		Workers:     8,
		MaxAttempts: 2,
		MaxRounds:   1,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
	}, []*core.BWAuth{auth}, source)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := c.Run(context.Background()); err != nil {
		return nil, 0, err
	}
	return backend, time.Since(start), nil
}

// runCoordRoundAbort quantifies the streaming pipeline's early abort: it
// repeats the undersized-prior round (a fresh coordinator each iteration,
// so the prior feedback never converges the doubling attempts away) for
// the whole measurement window — a single round finishes in milliseconds
// on the instant backend, so iterating is what makes the cells/sec figure
// stable enough for the CI regression gate — then runs the identical round
// once with early abort disabled as the fixed-length baseline. The
// Result's throughput numbers describe the early-abort iterations; the
// Extra map carries the per-round slot-second comparison for
// BENCH_wire.json. The scenario fails if early abort does not reduce
// slot-seconds — that reduction is the point of the refactor.
func runCoordRoundAbort(opts Options) (Result, error) {
	window := opts.window()
	before := readMem()
	start := time.Now()
	var (
		cells      int64
		abortSecs  int64
		abortSlots int64
		iterations int64
	)
	for {
		backend, _, err := runAbortRound(opts, false)
		if err != nil {
			return Result{}, err
		}
		emitted, _, slots := backend.slotSeconds()
		abortSecs += emitted
		abortSlots += slots
		cells += int64(backend.total() / cell.Size)
		iterations++
		if time.Since(start) >= window {
			break
		}
	}
	elapsed := time.Since(start)
	after := readMem()

	fixedBackend, _, err := runAbortRound(opts, true)
	if err != nil {
		return Result{}, err
	}
	fixedSecs, _, fixedSlots := fixedBackend.slotSeconds()
	perRoundAbort := float64(abortSecs) / float64(iterations)
	if abortSecs <= 0 || fixedSecs <= 0 {
		return Result{}, errors.New("perf: abort scenario measured nothing")
	}
	if perRoundAbort >= float64(fixedSecs) {
		return Result{}, fmt.Errorf("perf: early abort saved no slot-seconds (%.0f per round with abort vs %d fixed)", perRoundAbort, fixedSecs)
	}
	res := finish(cells, elapsed, before, after)
	res.Extra = map[string]float64{
		"rounds":                   float64(iterations),
		"slot_seconds_early_abort": perRoundAbort,
		"slot_seconds_fixed":       float64(fixedSecs),
		"slot_seconds_saved_frac":  1 - perRoundAbort/float64(fixedSecs),
		"slots_early_abort":        float64(abortSlots) / float64(iterations),
		"slots_fixed":              float64(fixedSlots),
	}
	return res, nil
}

// runCoordRound drives full coordinator rounds — §4.3 scheduling, worker
// pool, aggregation, prior feedback — over a simulated relay population
// for the measurement window and reports the simulated measurement volume
// the coordinator sustained.
func runCoordRound(opts Options) (Result, error) {
	n := opts.relays()
	caps := make(map[string]float64, n)
	var source coord.StaticRelays
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("relay-%03d", i)
		capBps := 5e6 + float64(i%40)*2.5e6 // 5–102.5 Mbit/s spread
		caps[name] = capBps
		source = append(source, core.RelayEstimate{Name: name, EstimateBps: capBps})
	}
	backend := &instantBackend{capBps: caps}
	p := core.DefaultParams()
	p.SlotSeconds = 2
	team := []*core.Measurer{
		{Name: "m1", CapacityBps: 500e6, Cores: 4},
		{Name: "m2", CapacityBps: 500e6, Cores: 4},
	}
	auth := core.NewBWAuth("bw0", team, backend, p)

	window := opts.window()
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	c, err := coord.New(coord.Config{
		Params:      p,
		Workers:     8,
		MaxAttempts: 2,
		RetryBase:   time.Millisecond,
		RetryMax:    4 * time.Millisecond,
	}, []*core.BWAuth{auth}, source)
	if err != nil {
		return Result{}, err
	}

	before := readMem()
	start := time.Now()
	err = c.Run(ctx)
	elapsed := time.Since(start)
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return Result{}, err
	}
	cells := int64(backend.total() / cell.Size)
	if cells == 0 {
		return Result{}, errors.New("perf: coordinator round measured nothing")
	}
	return finish(cells, elapsed, before, readMem()), nil
}

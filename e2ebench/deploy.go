package main

import (
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/metrics"
	"flashflow/internal/obs"
	"flashflow/internal/relay"
	"flashflow/internal/rpc"
	"flashflow/internal/store"
	"flashflow/internal/wire"
)

// authSecret derives the demo BWAuth identities on both ends of the RPC,
// as coordd -dirauth and bwauthd do with -auth-secret.
const authSecret = "e2ebench"

// deployment is one complete FlashFlow deployment in this process: the
// BWAuth columns (each a coordinator, its measurement backend and a file
// store), the dirauth merge node (rpc server, merge service, store) and
// the observability server publishing the merged /v3bw.
type deployment struct {
	s    spec
	seed int64
	tr   *tracer
	pop  *population
	dir  string

	cols []*column
	mn   *mergeNode
	obs  *obs.Server
	url  string
	get  *http.Client

	// cur is the round in flight; the seam wrappers file their records
	// under it.
	cur atomic.Pointer[roundRec]
	// merged receives the round number of every merge whose views all
	// belong to one round.
	merged chan int

	// Wire data plane: one target per relay index, serving on its own
	// loopback listener, and the name → relay index map the dialers use.
	targets   []*wire.Target
	listeners []net.Listener
	serving   sync.WaitGroup
	nameMu    sync.RWMutex
	index     map[string]int
}

// column is one BWAuth: a single-column coordinator, as bwauthd runs it.
type column struct {
	idx      int
	name     string
	id       wire.Identity
	auth     *core.BWAuth
	c        *coord.Coordinator
	pool     *coord.Pool
	fs       *store.FileStore
	client   *rpc.Client
	counters *metrics.Counters
	src      *source
}

// newDeployment builds a deployment for one workload and seed. Everything
// it starts is stopped by close, which also waits for it.
func newDeployment(s spec, seed int64, tr *tracer, dir string) (d *deployment, err error) {
	d = &deployment{
		s:      s,
		seed:   seed,
		tr:     tr,
		pop:    newPopulation(s, seed),
		dir:    dir,
		merged: make(chan int, 1),
		index:  make(map[string]int, s.relays),
	}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	for i, n := range d.pop.names {
		d.index[n] = i
	}
	names := make([]string, s.columns)
	for i := range names {
		names[i] = fmt.Sprintf("bw%d", i)
	}
	if d.mn, err = newMergeNode(d, names); err != nil {
		return d, err
	}
	d.obs = obs.NewServer(obs.Config{Counters: d.mn.counters, Snapshot: d.mn.snapshot, Merge: d.mn.svc})
	addr, err := d.obs.Start("127.0.0.1:0")
	if err != nil {
		return d, fmt.Errorf("observability server: %w", err)
	}
	d.url = "http://" + addr.String() + "/v3bw"
	d.get = &http.Client{Timeout: 30 * time.Second}

	var ids []wire.Identity
	if s.wire {
		if ids, err = d.startTargets(); err != nil {
			return d, err
		}
	}
	for i, name := range names {
		col := &column{idx: i, name: name, counters: metrics.NewCounters()}
		// Listed before it is built, so close releases a half-built column.
		d.cols = append(d.cols, col)
		if err := d.buildColumn(col, ids); err != nil {
			return d, err
		}
	}
	return d, nil
}

// startTargets starts one rate-limited wire.Target per relay index, each
// served by Target.Serve on its own loopback listener, and returns the
// measurer identities they authorize.
func (d *deployment) startTargets() ([]wire.Identity, error) {
	ids := make([]wire.Identity, measurers)
	for i := range ids {
		var err error
		if ids[i], err = wire.NewIdentity(); err != nil {
			return nil, err
		}
	}
	for i := range d.pop.caps {
		t := wire.NewTarget(wire.TargetConfig{RateBps: d.pop.caps[i]})
		for _, id := range ids {
			t.Authorize(id.Pub)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.targets = append(d.targets, t)
		d.listeners = append(d.listeners, l)
		d.serving.Add(1)
		go func() {
			defer d.serving.Done()
			t.Serve(l)
		}()
	}
	return ids, nil
}

func (d *deployment) params() core.Params {
	p := core.DefaultParams()
	p.SlotSeconds = d.s.slotSeconds
	p.Sockets = d.s.sockets
	if !d.s.wire {
		// The sim runs noise-free, so slot results — and every view —
		// are deterministic; echo checks draw randomness, so they are off
		// as in bwauthd -sim.
		p.CheckProb = 0
	}
	return p
}

// buildColumn builds one BWAuth column: its backend, store, RPC client and
// coordinator.
func (d *deployment) buildColumn(col *column, ids []wire.Identity) error {
	idx, name := col.idx, col.name
	p := d.params()
	team := make([]*core.Measurer, measurers)
	for i := range team {
		team[i] = &core.Measurer{Name: fmt.Sprintf("m%d", i), CapacityBps: d.s.measurerBps, Cores: 2}
	}
	var backend core.Backend
	if d.s.wire {
		col.pool = coord.NewPool(4, 90*time.Second)
		members := make([]wire.Member, measurers)
		for i := range members {
			members[i] = wire.Member{Identity: ids[i], Dial: d.dialer(col, i)}
		}
		backend = &wire.Backend{Members: members, CheckProb: p.CheckProb, Seed: d.seed}
	} else {
		paths := make([]core.PathModel, measurers)
		for i := range paths {
			paths[i] = core.PathModel{RTT: 40 * time.Millisecond, LinkBps: 10e9}
		}
		sim := core.NewSimBackend(paths, d.seed)
		sim.CheckProb = 0
		for i, n := range d.pop.names {
			sim.AddTarget(n, &core.SimTarget{
				Relay:    relay.New(relay.Config{Name: n, TorCapBps: d.pop.caps[i]}),
				LinkBps:  10e9,
				Behavior: core.BehaviorHonest,
			})
		}
		backend = sim
	}
	col.auth = core.NewBWAuth(name, team, &tracedBackend{inner: backend, d: d, col: idx, p: p}, p)

	fs, err := store.Open(filepath.Join(d.dir, name), store.Options{NoSync: d.s.noSync})
	if err != nil {
		return err
	}
	col.fs = fs
	col.id = rpc.DeriveIdentity(authSecret, name)
	rpcAddr := d.mn.addr
	col.client, err = rpc.NewClient(rpc.ClientConfig{
		Dial: func(ctx context.Context) (io.ReadWriteCloser, error) {
			var dl net.Dialer
			return dl.DialContext(ctx, "tcp", rpcAddr)
		},
		Identity: col.id,
		Counters: col.counters,
	})
	if err != nil {
		return err
	}
	col.src = &source{d: d, col: idx}
	col.src.set(d.pop, nil)
	col.c, err = coord.New(coord.Config{
		Params:          p,
		Workers:         d.s.workers,
		MaxRounds:       1,
		Pool:            col.pool,
		Store:           &tracedStore{inner: fs, d: d, col: idx},
		CheckpointEvery: 1,
		Counters:        col.counters,
		OnSnapshot:      func(round int, f *dirauth.BandwidthFile) { d.submit(col, round, f) },
		OnRound: func(r coord.RoundReport) {
			// The coordinator's own end of the round: after its checkpoint.
			now := d.tr.now()
			d.tr.record(0, 0, r.Round, idx, "coord.on_round", now, now)
			d.colRound(idx).setReport(r)
		},
		Seed: d.seed,
	}, []*core.BWAuth{col.auth}, col.src)
	return err
}

// dialer is wire.Member.Dial for measurer m: pooled TCP connections to the
// relay's target, keyed per relay name and measurer as coordd keys them,
// with each dial timed.
func (d *deployment) dialer(col *column, m int) func(string) wire.Dialer {
	return func(target string) wire.Dialer {
		d.nameMu.RLock()
		i, ok := d.index[target]
		d.nameMu.RUnlock()
		addr := ""
		if ok {
			addr = d.listeners[i].Addr().String()
		}
		inner := col.pool.Dialer(fmt.Sprintf("%s/m%d", target, m), func() (net.Conn, error) {
			if addr == "" {
				return nil, fmt.Errorf("no target for relay %q", target)
			}
			return net.Dial("tcp", addr)
		})
		return func() (net.Conn, error) {
			start := d.tr.now()
			conn, err := inner()
			end := d.tr.now()
			rr := d.cur.Load()
			if rr != nil {
				cr := rr.cols[col.idx]
				cr.mu.Lock()
				cr.dials = append(cr.dials, float64(end-start)/1e9)
				cr.mu.Unlock()
				d.tr.record(0, 0, rr.round, col.idx, "wire.dial", start, end)
			}
			return conn, err
		}
	}
}

// submit is a column's OnSnapshot hook, as bwauthd wires it: render the
// view, sign it and submit it to the merge node over the RPC.
func (d *deployment) submit(col *column, round int, f *dirauth.BandwidthFile) {
	cr := d.colRound(col.idx)
	snapAt := d.tr.now()
	snapID := d.tr.newID()
	body, _, err := f.Render()
	rendered := d.tr.now()
	d.tr.record(0, snapID, round, col.idx, "dirauth.render", snapAt, rendered)
	var callStart, callEnd int64
	callID := d.tr.newID()
	if err == nil {
		sub := &dirauth.Submission{BWAuth: col.name, Round: round, Version: dirauth.SubmissionVersionMax, Body: body}
		sub.Sign(col.id.Priv)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		cr.mu.Lock()
		cr.callID = callID
		cr.mu.Unlock()
		callStart = d.tr.now()
		_, err = col.client.Call(ctx, rpc.MethodSubmitV3BW, sub.Encode())
		callEnd = d.tr.now()
		cancel()
		d.tr.record(callID, snapID, round, col.idx, "rpc.call", callStart, callEnd)
	}
	end := d.tr.now()
	d.tr.record(snapID, 0, round, col.idx, "coord.on_snapshot", snapAt, end)
	cr.mu.Lock()
	cr.snapAt, cr.snapEnd = snapAt, end
	cr.renderNs = rendered - snapAt
	cr.callNs = callEnd - callStart
	cr.body = body
	cr.submitErr = err
	cr.mu.Unlock()
}

// colRound is the record of column col in the round in flight.
func (d *deployment) colRound(col int) *colRound {
	if rr := d.cur.Load(); rr != nil {
		return rr.cols[col]
	}
	return &colRound{} // recovery-time hook calls before the first round
}

// setChurn renames the churned relay indices in every column's source.
func (d *deployment) setChurn(churned []int) {
	d.nameMu.Lock()
	for _, i := range churned {
		d.index[d.pop.names[i]] = i
	}
	d.nameMu.Unlock()
	for _, col := range d.cols {
		col.src.set(d.pop, churned)
	}
}

// close stops everything the deployment started and waits for it.
func (d *deployment) close() {
	for _, col := range d.cols {
		if col.client != nil {
			col.client.Close()
		}
	}
	if d.mn != nil {
		d.mn.close()
	}
	if d.obs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		d.obs.Shutdown(ctx)
		cancel()
	}
	if d.get != nil {
		d.get.CloseIdleConnections()
	}
	for _, l := range d.listeners {
		l.Close()
	}
	d.serving.Wait()
	for _, col := range d.cols {
		if col.pool != nil {
			col.pool.Close()
		}
	}
	for _, t := range d.targets {
		t.Close()
	}
	for _, col := range d.cols {
		if col.fs != nil {
			col.fs.Close()
		}
	}
}

// source is a column's coord.RelaySource. The coordinator calls it first
// thing in a round, so the call marks the round's start.
type source struct {
	d   *deployment
	col int

	mu     sync.Mutex
	relays []core.RelayEstimate
}

// set installs the population; churned relays get a quarter of their
// capacity as the source prior, the rest their capacity.
func (s *source) set(p *population, churned []int) {
	isNew := make(map[int]bool, len(churned))
	for _, i := range churned {
		isNew[i] = true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.relays = s.relays[:0]
	for i, n := range p.names {
		prior := p.caps[i]
		if isNew[i] {
			prior /= 4
		}
		s.relays = append(s.relays, core.RelayEstimate{Name: n, EstimateBps: prior})
	}
}

func (s *source) mark() {
	now := s.d.tr.now()
	cr := s.d.colRound(s.col)
	cr.mu.Lock()
	cr.srcAt = now
	cr.mu.Unlock()
}

// Relays implements coord.RelaySource.
func (s *source) Relays() []core.RelayEstimate {
	s.mark()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]core.RelayEstimate(nil), s.relays...)
}

// AppendRelays implements coord.RelayAppender.
func (s *source) AppendRelays(buf []core.RelayEstimate) []core.RelayEstimate {
	s.mark()
	s.mu.Lock()
	defer s.mu.Unlock()
	return append(buf, s.relays...)
}

// tracedBackend wraps a column's core.Backend: one record per slot
// attempt, and whether the attempt met the §4.2 acceptance condition, so
// the run can check that every conclusive relay is published.
type tracedBackend struct {
	inner core.Backend
	d     *deployment
	col   int
	p     core.Params
}

func (b *tracedBackend) RunMeasurement(ctx context.Context, target string, alloc core.Allocation, seconds int, sink core.SampleSink) (core.MeasurementData, error) {
	start := b.d.tr.now()
	data, err := b.inner.RunMeasurement(ctx, target, alloc, seconds, sink)
	end := b.d.tr.now()

	secs := 0
	var bytes float64
	for _, row := range data.MeasBytes {
		secs = max(secs, len(row))
		for _, v := range row {
			bytes += v
		}
	}
	accepted := false
	if err == nil && !data.Incomplete && !data.Failed {
		if agg, aerr := core.Aggregate(data, b.p.Ratio); aerr == nil {
			accepted = core.EstimateAccepted(agg.EstimateBytesPerSec, alloc.TotalBps, b.p)
		}
	}
	rr := b.d.cur.Load()
	if rr == nil {
		return data, err
	}
	cr := rr.cols[b.col]
	cr.mu.Lock()
	if cr.slots == 0 || start < cr.firstSlot {
		cr.firstSlot = start
	}
	cr.lastSlotEnd = max(cr.lastSlotEnd, end)
	cr.slots++
	cr.slotWall += end - start
	cr.requestedSecs += seconds
	cr.dataSecs += secs
	cr.bytes += bytes
	if secs < seconds && errors.Is(err, context.Canceled) {
		cr.cancelled++
	}
	if data.Incomplete || data.Failed {
		cr.incomplete++
	}
	if b.d.s.wire {
		wall := float64(end-start) / 1e9
		cr.slotWalls = append(cr.slotWalls, wall)
		cr.overheads = append(cr.overheads, wall-float64(secs))
	}
	cr.accepted[target] = accepted
	if rr.traced {
		cr.slotIvs = append(cr.slotIvs, interval{start, end})
	}
	cr.mu.Unlock()
	if b.d.s.wire {
		b.d.tr.record(0, 0, rr.round, b.col, "wire.slot", start, end)
	}
	return data, err
}

// tracedStore wraps a store.Store and times its appends and checkpoints.
type tracedStore struct {
	inner store.Store
	d     *deployment
	col   int // -1 for the merge node
}

func (s *tracedStore) Load() (*store.State, error) { return s.inner.Load() }
func (s *tracedStore) Close() error                { return s.inner.Close() }

func (s *tracedStore) Append(recs ...store.Record) error {
	start := s.d.tr.now()
	err := s.inner.Append(recs...)
	end := s.d.tr.now()
	if rr := s.d.cur.Load(); rr != nil {
		st := rr.storeStats(s.col)
		st.mu.Lock()
		st.appends++
		st.records += len(recs)
		st.appendNs += end - start
		st.mu.Unlock()
		s.d.tr.record(0, 0, rr.round, s.col, "store.append", start, end)
	}
	return err
}

func (s *tracedStore) Checkpoint(st *store.State) error {
	start := s.d.tr.now()
	err := s.inner.Checkpoint(st)
	end := s.d.tr.now()
	if rr := s.d.cur.Load(); rr != nil {
		ss := rr.storeStats(s.col)
		ss.mu.Lock()
		ss.checkpoints++
		ss.checkpointNs += end - start
		ss.mu.Unlock()
		s.d.tr.record(0, 0, rr.round, s.col, "store.checkpoint", start, end)
	}
	return err
}

// mergeNode is the dirauth side, wired as coordd -dirauth wires it: an
// authenticated rpc server whose handler decodes submissions into a
// dirauth.MergeService, persisting every accepted view to a file store
// and publishing every merge through an obs.SnapshotHolder.
type mergeNode struct {
	d        *deployment
	names    []string
	counters *metrics.Counters
	snapshot *obs.SnapshotHolder
	svc      *dirauth.MergeService
	srv      *rpc.Server
	addr     string
	fs       *store.FileStore
	durable  *tracedStore

	mu      sync.Mutex // guards state, accepts and viewRound
	state   *store.State
	accepts int
	// viewRound is the round of each BWAuth's latest accepted view.
	viewRound map[string]int
}

func newMergeNode(d *deployment, names []string) (*mergeNode, error) {
	mn := &mergeNode{
		d:         d,
		names:     names,
		counters:  metrics.NewCounters(),
		snapshot:  &obs.SnapshotHolder{},
		viewRound: make(map[string]int, len(names)),
	}
	keys := make(map[string]ed25519.PublicKey, len(names))
	authorized := make([]ed25519.PublicKey, 0, len(names))
	for _, n := range names {
		id := rpc.DeriveIdentity(authSecret, n)
		keys[n] = id.Pub
		authorized = append(authorized, id.Pub)
	}
	fs, err := store.Open(filepath.Join(d.dir, "dirauth"), store.Options{NoSync: d.s.noSync})
	if err != nil {
		return nil, err
	}
	mn.fs = fs
	mn.durable = &tracedStore{inner: fs, d: d, col: -1}
	if mn.state, err = mn.durable.Load(); err != nil {
		return nil, fmt.Errorf("load merge state: %w", err)
	}
	mn.svc, err = dirauth.NewMergeService(dirauth.MergeConfig{
		Keys:     keys,
		FreshFor: 15 * time.Minute,
		MinViews: len(names),
		Counters: mn.counters,
		OnAccept: mn.onAccept,
		OnMerge:  mn.onMerge,
	})
	if err != nil {
		return nil, err
	}
	mn.srv, err = rpc.NewServer(rpc.ServerConfig{
		Authorized:    authorized,
		Counters:      mn.counters,
		CounterPrefix: "dirauth_rpc",
		Handler:       mn.handle,
	})
	if err != nil {
		return nil, err
	}
	addr, err := mn.srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("rpc listener: %w", err)
	}
	mn.addr = addr.String()
	return mn, nil
}

// handle is the rpc handler: decode, submit, answer as coordd does.
func (mn *mergeNode) handle(_ ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
	d := mn.d
	start := d.tr.now()
	if method != rpc.MethodSubmitV3BW {
		return nil, fmt.Errorf("unknown method %d", method)
	}
	sub, err := dirauth.DecodeSubmission(body)
	decoded := d.tr.now()
	if err != nil {
		return nil, err
	}
	merged, err := mn.svc.Submit(sub)
	end := d.tr.now()

	rr := d.cur.Load()
	if rr != nil {
		col := -1
		for i, n := range mn.names {
			if n == sub.BWAuth {
				col = i
			}
		}
		m := &rr.merge
		m.mu.Lock()
		m.decodeNs += decoded - start
		m.submits = append(m.submits, float64(end-decoded)/1e9)
		if err == nil && m.full == sub.Round && m.mergeSubmitNs == 0 {
			// This submission's merge was the round's complete one.
			m.mergeSubmitNs = end - decoded
		}
		if err != nil {
			m.rejected++
		}
		m.mu.Unlock()
		parent := uint64(0)
		if col >= 0 {
			cr := rr.cols[col]
			cr.mu.Lock()
			cr.handlerNs = end - start
			parent = cr.callID
			cr.mu.Unlock()
		}
		hid := d.tr.newID()
		d.tr.record(hid, parent, rr.round, -1, "rpc.handler", start, end)
		d.tr.record(0, hid, rr.round, -1, "dirauth.decode", start, decoded)
		d.tr.record(0, hid, rr.round, -1, "dirauth.submit", decoded, end)
	}
	if err != nil {
		return nil, err
	}
	if merged == nil {
		return fmt.Appendf(nil, "accepted %s round %d; awaiting more views", sub.BWAuth, sub.Round), nil
	}
	return fmt.Appendf(nil, "accepted %s round %d; merged round %d over %d views",
		sub.BWAuth, sub.Round, merged.Round, len(merged.Views)), nil
}

// onAccept persists the accepted view as coordd -dirauth does: a WAL
// append per view and a checkpoint every len(names) accepts.
func (mn *mergeNode) onAccept(v dirauth.View) {
	mn.mu.Lock()
	defer mn.mu.Unlock()
	mn.viewRound[v.BWAuth] = v.Round
	mn.state.Submissions[v.BWAuth] = store.SubmissionRecord{
		Round: v.Round, Version: v.Version, Unix: v.Received.Unix(),
		Body: append([]byte(nil), v.Body...),
	}
	if err := mn.durable.Append(store.Record{
		Kind: store.KindSubmission, Relay: v.BWAuth, Round: v.Round,
		Version: v.Version, Unix: v.Received.Unix(), Body: v.Body,
	}); err != nil {
		mn.counters.Inc("bench_store_errors")
	}
	mn.accepts++
	if mn.accepts%len(mn.names) == 0 {
		if err := mn.durable.Checkpoint(mn.state); err != nil {
			mn.counters.Inc("bench_store_errors")
		}
	}
}

// onMerge publishes every merge, as coordd -dirauth does, and signals the
// round loop when the merge is the round's complete one.
func (mn *mergeNode) onMerge(m dirauth.Merged) {
	d := mn.d
	start := d.tr.now()
	err := mn.snapshot.Publish(m.Round, m.File, time.Now())
	end := d.tr.now()
	if err != nil {
		mn.counters.Inc("bench_publish_errors")
		return
	}
	mn.mu.Lock()
	full := len(mn.viewRound) == len(mn.names)
	for _, r := range mn.viewRound {
		full = full && r == m.Round
	}
	mn.mu.Unlock()
	rr := d.cur.Load()
	if rr == nil {
		return
	}
	rr.merge.mu.Lock()
	rr.merge.publishes = append(rr.merge.publishes, float64(end-start)/1e9)
	if full {
		rr.merge.full = m.Round
	}
	rr.merge.mu.Unlock()
	d.tr.record(0, 0, rr.round, -1, "obs.publish", start, end)
	if full {
		select {
		case d.merged <- m.Round:
		default:
			mn.counters.Inc("bench_merge_signal_dropped")
		}
	}
}

func (mn *mergeNode) close() {
	if mn.srv != nil {
		mn.srv.Close()
	}
	if mn.fs != nil {
		mn.fs.Close()
	}
}

// Command coordd is FlashFlow's daemon. Flags pick one of three roles:
//
//   - Standalone (the default): a continuous-measurement service
//     (internal/coord) over an in-process relay population — wire
//     targets on localhost TCP, or the simulation with -sim. Every round
//     measures each relay with a bounded worker pool and pooled
//     connections, retries failed slots, feeds its medians into the next
//     round's priors, and publishes a v3bw-style bandwidth file to disk
//     and to the HTTP observability plane.
//   - BWAuth column (-dirauth-addr A -auth-secret S, named by -name): the
//     same coordinator, run as one bandwidth authority of a distributed
//     deployment (paper §4.3). Each round's view is signed with the
//     BWAuth's ed25519 key — derived from S and -name, demo key
//     management only — and submitted to the merge node at A over the
//     authenticated RPC (internal/rpc). A round cut short by shutdown is
//     never submitted.
//   - Merge node (-dirauth): accepts signed submissions from the columns,
//     merges the fresh views median-of-views (internal/dirauth), and
//     serves the merged file on /v3bw and per-BWAuth state on /dirauth.
//
// The -sim backend is noise-free: it consumes no randomness, so two
// identical runs publish identical v3bw bodies whatever the worker
// interleaving, and two identical distributed runs merge to identical
// bodies.
//
// -http-addr serves /metrics, /status, /status/anomalies and /v3bw
// (internal/obs); -debug-addr serves pprof. §5 anomaly thresholds raise
// alerts to the log and, with -alert-webhook, to a webhook. -state-dir
// makes state durable (internal/store): a column's priors, anomaly
// windows, round counter and last v3bw, or a merge node's accepted
// submissions, so a restart resumes warm.
//
// SIGINT or SIGTERM shuts down gracefully: in-flight slots are cancelled
// within about a second, salvaging completed seconds; the HTTP server
// drains, alerts flush, the partial round is reported, and a final
// checkpoint is written. README.md lists every flag; OPERATIONS.md is
// the runbook for each role.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
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

// drainBudget bounds how long shutdown waits on each draining subsystem
// (the HTTP server, the alert queue) — matched to the coordinator's own
// ~1 s in-flight-slot drain so a stuck scraper or webhook cannot hold the
// process past the window operators already expect.
const drainBudget = time.Second

// submitTimeout is the deadline of one submission RPC to the merge node.
const submitTimeout = 10 * time.Second

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && err != context.Canceled {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// options holds every flag value; one set serves all three roles.
type options struct {
	relays, measurers, workers, rounds, slotSecs, sockets int
	poolSize, attempts, ckptEvery, minViews               int
	baseMbit, relayRate                                   float64
	interval, poolTTL, slotTimeout, freshFor              time.Duration
	snapshotDir, stateDir, httpAddr, debugAddr, logFormat string
	webhook, name, dirauthAddr, authSecret                string
	rpcAddr, bwauths                                      string
	alertClamp, alertEcho, alertSplit                     int64
	noPersist, sim, dirauth                               bool
}

// parseFlags parses args into options and rejects contradictory roles.
func parseFlags(args []string) (*options, error) {
	var o options
	fs := flag.NewFlagSet("coordd", flag.ContinueOnError)
	fs.IntVar(&o.relays, "relays", 4, "number of in-process target relays")
	fs.Float64Var(&o.baseMbit, "rate", 8, "slowest relay capacity in Mbit/s (others step up from it)")
	fs.IntVar(&o.measurers, "measurers", 2, "measurement team size")
	fs.IntVar(&o.workers, "workers", 4, "concurrent slot executions")
	fs.IntVar(&o.rounds, "rounds", 0, "rounds to run (0 = until SIGINT)")
	fs.DurationVar(&o.interval, "interval", 2*time.Second, "pause between rounds")
	fs.IntVar(&o.slotSecs, "slot", 1, "measurement slot length t in seconds")
	fs.IntVar(&o.sockets, "sockets", 4, "total measurement sockets s")
	fs.IntVar(&o.poolSize, "pool", 4, "max idle pooled connections per target")
	fs.DurationVar(&o.poolTTL, "pool-ttl", 90*time.Second, "idle connection TTL")
	fs.StringVar(&o.snapshotDir, "snapshot-dir", "", "directory for v3bw snapshots (empty = none)")
	fs.IntVar(&o.attempts, "attempts", 3, "max measurement attempts per slot")
	fs.DurationVar(&o.slotTimeout, "slot-timeout", 0, "wall-clock bound per slot assignment; its context is cancelled on expiry (0 = off)")
	fs.Float64Var(&o.relayRate, "relay-rate", 0, "per-relay attempt rate limit per second (0 = off)")
	fs.StringVar(&o.stateDir, "state-dir", "", "directory for durable state (coordinator: priors, anomaly windows, round counter, last v3bw; merge node: accepted submissions); empty = in-memory only")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 1, "rounds between full state checkpoints (the WAL covers the gap)")
	fs.BoolVar(&o.noPersist, "no-persist", false, "ignore -state-dir and run without durable state")
	fs.BoolVar(&o.sim, "sim", false, "simulated measurement backend: noise-free, deterministic, no sockets, rounds complete instantly")
	fs.StringVar(&o.httpAddr, "http-addr", "", "observability HTTP listen address (/metrics, /status, /v3bw); empty = off")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "pprof listen address (net/http/pprof); empty = off")
	fs.StringVar(&o.logFormat, "log-format", "text", "log output format: text (human) or json (one object per line)")
	fs.StringVar(&o.webhook, "alert-webhook", "", "POST threshold alerts as JSON to this URL (retried with backoff)")
	fs.Int64Var(&o.alertClamp, "alert-clamp-seconds", 30, "alert when a relay accumulates this many clamped seconds (0 = off)")
	fs.Int64Var(&o.alertEcho, "alert-echo-failures", 1, "alert when a relay accumulates this many echo-failures (0 = off)")
	fs.Int64Var(&o.alertSplit, "alert-split-view", 1, "alert when a relay accumulates this many split-view rounds (0 = off)")
	fs.StringVar(&o.authSecret, "auth-secret", "", "shared secret the demo key derivation uses, on columns and merge node alike (see OPERATIONS.md; not for production)")

	// BWAuth column: submit each round's signed view to a merge node.
	fs.StringVar(&o.name, "name", "bw0", "this BWAuth's name (its column and, with -dirauth-addr, its submission identity)")
	fs.StringVar(&o.dirauthAddr, "dirauth-addr", "", "merge node RPC address (coordd -dirauth -rpc-addr) to submit each round's view to; empty = standalone")

	// Merge node: run the dirauth side instead of measuring (see
	// cmd/coordd/dirauth.go and OPERATIONS.md).
	fs.BoolVar(&o.dirauth, "dirauth", false, "run as the dirauth merge node: accept signed v3bw submissions over RPC and serve the median-of-views merge")
	fs.StringVar(&o.rpcAddr, "rpc-addr", "127.0.0.1:8580", "dirauth mode: RPC listen address for BWAuth submissions")
	fs.StringVar(&o.bwauths, "bwauths", "bw0,bw1,bw2", "dirauth mode: comma-separated registered BWAuth names")
	fs.DurationVar(&o.freshFor, "fresh-for", 15*time.Minute, "dirauth mode: per-BWAuth submission freshness window (0 = views never expire)")
	fs.IntVar(&o.minViews, "min-views", 1, "dirauth mode: minimum fresh views required to merge")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	switch {
	case o.slotSecs <= 0:
		// Guard explicitly: a zero SlotSeconds would read as "params not
		// set" downstream and silently select the 30-second default.
		return nil, fmt.Errorf("coordd: -slot must be positive, got %d", o.slotSecs)
	case o.relays <= 0:
		return nil, fmt.Errorf("coordd: -relays must be positive, got %d", o.relays)
	case o.logFormat != "text" && o.logFormat != "json":
		return nil, fmt.Errorf("coordd: -log-format must be text or json, got %q", o.logFormat)
	case o.dirauth && o.dirauthAddr != "":
		return nil, fmt.Errorf("coordd: -dirauth and -dirauth-addr are exclusive: a merge node does not submit")
	case o.dirauth && o.authSecret == "":
		return nil, fmt.Errorf("coordd: -dirauth needs -auth-secret to derive the registered BWAuth keys")
	case o.dirauthAddr != "" && o.authSecret == "":
		return nil, fmt.Errorf("coordd: -dirauth-addr needs -auth-secret to derive this BWAuth's identity")
	}
	return &o, nil
}

// run parses args and runs the role they select until ctx is cancelled
// or the configured rounds are done, logging to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	o, err := parseFlags(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
		return err
	}
	log := &logger{w: stdout, json: o.logFormat == "json"}
	d, err := newDaemon(log, o)
	if err != nil {
		return err
	}
	defer d.close()
	if o.dirauth {
		return runDirauth(ctx, d)
	}
	return runColumn(ctx, d)
}

// logger emits coordd's operational records in one of two formats: the
// human-readable lines the command has always printed (default), or one
// JSON object per line (-log-format=json) so round summaries, anomaly
// reports, and alerts are machine-ingestable by a log pipeline.
type logger struct {
	mu   sync.Mutex
	w    io.Writer
	json bool
}

// event emits one record: kind and fields drive the JSON encoding, human
// is the text-mode line. fields must alternate key, value.
func (l *logger) event(kind, human string, fields ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.json {
		fmt.Fprintln(l.w, human)
		return
	}
	doc := make(map[string]any, len(fields)/2+2)
	doc["event"] = kind
	doc["time"] = time.Now().UTC().Format(time.RFC3339Nano)
	for i := 0; i+1 < len(fields); i += 2 {
		doc[fields[i].(string)] = fields[i+1]
	}
	b, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "coordd: log marshal: %v\n", err)
		return
	}
	l.w.Write(append(b, '\n'))
}

// daemon is the lifecycle every role shares: the logger, the counter
// registry every layer reports into, the snapshot /v3bw serves, the
// durable store, and the observability plane. Each role opens it, serves,
// drains, dumps its counters, and closes it — in that order.
type daemon struct {
	log      *logger
	opts     *options
	counters *metrics.Counters
	snapshot *obs.SnapshotHolder
	store    store.Store // nil: in-memory only
	http     *obs.Server
	debug    net.Listener
}

// newDaemon opens the durable store under -state-dir unless -no-persist
// is set. The caller closes the daemon once its role has finished.
func newDaemon(log *logger, o *options) (*daemon, error) {
	d := &daemon{log: log, opts: o, counters: metrics.NewCounters(), snapshot: &obs.SnapshotHolder{}}
	if o.stateDir != "" && !o.noPersist {
		fs, err := store.Open(o.stateDir, store.Options{})
		if err != nil {
			return nil, fmt.Errorf("coordd: open state dir: %w", err)
		}
		d.store = fs
	}
	return d, nil
}

// serve starts the observability plane on -http-addr and pprof on
// -debug-addr, logging each bound address. cfg names the role's status
// source; routes lists its paths for the log line.
func (d *daemon) serve(cfg obs.Config, routes string) error {
	cfg.Counters, cfg.Snapshot = d.counters, d.snapshot
	d.http = obs.NewServer(cfg)
	if d.opts.httpAddr != "" {
		addr, err := d.http.Start(d.opts.httpAddr)
		if err != nil {
			return fmt.Errorf("coordd: observability server: %w", err)
		}
		d.log.event("http", fmt.Sprintf("observability: http://%s (%s)", addr, routes),
			"addr", addr.String())
	}
	if d.opts.debugAddr != "" {
		dl, err := net.Listen("tcp", d.opts.debugAddr)
		if err != nil {
			return fmt.Errorf("coordd: debug server: %w", err)
		}
		d.debug = dl
		debugSrv := &http.Server{Handler: obs.DebugHandler(), ReadHeaderTimeout: 5 * time.Second}
		go func() { _ = debugSrv.Serve(dl) }()
		d.log.event("pprof", fmt.Sprintf("pprof: http://%s/debug/pprof/", dl.Addr()),
			"addr", dl.Addr().String())
	}
	return nil
}

// drain stops the observability plane inside drainBudget: the HTTP
// server finishes in-flight responses, then flush (pending alerts, when
// non-nil) gets the remainder before it is cancelled.
func (d *daemon) drain(flush func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), drainBudget)
	defer cancel()
	if err := d.http.Shutdown(ctx); err != nil {
		d.log.event("shutdown_error", "coordd: http drain: "+err.Error(), "error", err.Error())
	}
	if flush == nil {
		return
	}
	if err := flush(ctx); err != nil {
		d.log.event("shutdown_error", "coordd: alert flush: "+err.Error(), "error", err.Error())
	}
}

// dumpCounters logs every counter once, at exit.
func (d *daemon) dumpCounters() {
	doc := make(map[string]int64)
	for _, kv := range d.counters.SortedSnapshot() {
		doc[kv.Name] = kv.Value
	}
	d.log.event("counters", strings.TrimSuffix(d.counters.String(), "\n"), "counters", doc)
}

// close releases the pprof listener and the durable store. It does not
// checkpoint: each role flushes its own final state first.
func (d *daemon) close() {
	if d.debug != nil {
		d.debug.Close()
	}
	if d.store != nil {
		d.store.Close()
	}
}

// runColumn measures the population round by round — standalone, or as
// a BWAuth column submitting each round's view with -dirauth-addr.
func runColumn(ctx context.Context, d *daemon) error {
	o, log := d.opts, d.log
	p := core.DefaultParams()
	p.SlotSeconds = o.slotSecs
	p.Sockets = o.sockets
	p.CheckProb = 0.01
	if o.sim {
		// Echo checks draw randomness; the noise-free sim draws none.
		p.CheckProb = 0
	}
	auth, source, pool, cleanup, err := population(log, o, p)
	if err != nil {
		return err
	}
	defer cleanup()

	var sub *submitter
	if o.dirauthAddr != "" {
		if sub, err = newSubmitter(d); err != nil {
			return err
		}
		defer sub.client.Close()
	}

	// Alert manager fed by the per-round anomaly table.
	thresholds := obs.DefaultThresholds()
	thresholds.ClampedSeconds = o.alertClamp
	thresholds.EchoFailures = o.alertEcho
	thresholds.SplitViewRounds = o.alertSplit
	sinks := []obs.Sink{&obs.LogSink{W: log.w, JSON: log.json}}
	if o.webhook != "" {
		sinks = append(sinks, &obs.WebhookSink{URL: o.webhook})
	}
	alerts := obs.NewAlertManager(obs.AlertConfig{
		Thresholds: thresholds,
		Sinks:      sinks,
		Counters:   d.counters,
	})
	defer alerts.Close()

	var c *coord.Coordinator
	c, err = coord.New(coord.Config{
		Params:              p,
		Workers:             o.workers,
		MaxAttempts:         o.attempts,
		SlotTimeout:         o.slotTimeout,
		RelayAttemptsPerSec: o.relayRate,
		RelayBurst:          2,
		RoundInterval:       o.interval,
		MaxRounds:           o.rounds,
		SnapshotDir:         o.snapshotDir,
		Pool:                pool,
		Store:               d.store,
		CheckpointEvery:     o.ckptEvery,
		Counters:            d.counters,
		OnSnapshot: func(round int, f *dirauth.BandwidthFile) {
			if err := d.snapshot.Publish(round, f, time.Now()); err != nil {
				log.event("snapshot_error", "  snapshot render: "+err.Error(),
					"round", round, "error", err.Error())
			}
			if sub != nil {
				sub.submit(ctx, round, f)
			}
		},
		OnRound: func(r coord.RoundReport) {
			logRound(log, r)
			st := c.Status()
			alerts.Evaluate(r.Round, st.Anomalies, time.Now())
			alerts.Retain(st.Anomalies)
		},
	}, []*core.BWAuth{auth}, source)
	if err != nil {
		return err
	}
	if d.store != nil {
		s := c.Status()
		log.event("recover",
			fmt.Sprintf("coordd: durable state from %s: resuming after round %d (%d priors, %d anomaly records)",
				o.stateDir, s.Round, s.Counters["coord_store_recovered_priors"], s.Counters["coord_store_recovered_anomalies"]),
			"state_dir", o.stateDir,
			"round", s.Round,
			"priors", s.Counters["coord_store_recovered_priors"],
			"anomalies", s.Counters["coord_store_recovered_anomalies"])
	}
	if err := d.serve(obs.Config{Coordinator: c}, "/metrics /status /status/anomalies /v3bw"); err != nil {
		return err
	}

	target := "standalone"
	if o.dirauthAddr != "" {
		target = "submitting to " + o.dirauthAddr
	}
	log.event("start",
		fmt.Sprintf("coordd %s: %d relays, %d measurers, %d workers, %s; ctrl-C for graceful shutdown",
			o.name, o.relays, o.measurers, o.workers, target),
		"name", o.name, "relays", o.relays, "measurers", o.measurers, "workers", o.workers,
		"sim", o.sim, "dirauth_addr", o.dirauthAddr)
	runErr := c.Run(ctx)
	if runErr == context.Canceled {
		log.event("shutdown", "coordd: interrupted — in-flight slots cancelled and drained")
	}
	d.drain(alerts.Flush)
	logAnomalies(log, c.Status().Anomalies)
	d.dumpCounters()
	return runErr
}

// logAnomalies reports the §5 anomaly evidence accumulated over the run:
// relays whose measurements tripped the clamp, echo verification, or the
// stall/skew/split-view cross-checks (see DESIGN.md).
func logAnomalies(log *logger, anomalies map[string]core.AnomalyCounts) {
	names := make([]string, 0, len(anomalies))
	for name := range anomalies {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		a := anomalies[name]
		human := fmt.Sprintf("  %s: clamped-seconds=%d ratio-clamped=%d echo-failures=%d stall=%d skew=%d split-view=%d",
			name, a.ClampedSeconds, a.RatioClampedSlots, a.EchoFailures,
			a.StallSuspectSlots, a.SkewSuspectSlots, a.SplitViewRounds)
		if i == 0 {
			human = "anomaly suspects:\n" + human
		}
		log.event("anomaly", human,
			"relay", name,
			"clamped_seconds", a.ClampedSeconds,
			"ratio_clamped_slots", a.RatioClampedSlots,
			"echo_failures", a.EchoFailures,
			"stall_suspect_slots", a.StallSuspectSlots,
			"skew_suspect_slots", a.SkewSuspectSlots,
			"split_view_rounds", a.SplitViewRounds)
	}
}

// logRound emits one round summary.
func logRound(log *logger, r coord.RoundReport) {
	human := r.String()
	if r.SnapshotPath != "" {
		human += "\n  snapshot: " + r.SnapshotPath
	}
	if len(r.Unscheduled) > 0 {
		names := r.Unscheduled
		if len(names) > 5 {
			names = names[:5]
		}
		human += fmt.Sprintf("\n  unscheduled: %d relay(s) did not fit the schedule (team capacity too small): %s",
			len(r.Unscheduled), strings.Join(names, ", "))
	}
	for _, um := range r.Unmeasured {
		human += fmt.Sprintf("\n  unmeasured: %s@%s after %d attempts: %s", um.Relay, um.BWAuth, um.Attempts, um.Reason)
	}
	log.event("round", human,
		"round", r.Round,
		"relays", r.Relays,
		"scheduled", r.Scheduled,
		"conclusive", r.Conclusive,
		"inconclusive", r.Inconclusive,
		"unmeasured", len(r.Unmeasured),
		"unscheduled", len(r.Unscheduled),
		"retries", r.Retries,
		"rate_limited", r.RateLimited,
		"estimates", len(r.Estimates),
		"pool_hits", r.Pool.Hits,
		"pool_misses", r.Pool.Misses,
		"duration_ms", float64(r.Duration)/float64(time.Millisecond),
		"partial", r.Partial,
		"snapshot", r.SnapshotPath)
}

// population builds the BWAuth column and the relays it measures: the
// noise-free simulation with -sim, otherwise wire targets on localhost
// listeners measured by a team with pooled authenticated connections.
// Relay i is named relayNN with capacity -rate × (1 + i/2) Mbit/s.
func population(log *logger, o *options, p core.Params) (*core.BWAuth, coord.StaticRelays, *coord.Pool, func(), error) {
	team := make([]*core.Measurer, o.measurers)
	for i := range team {
		team[i] = &core.Measurer{Name: fmt.Sprintf("m%d", i), CapacityBps: 500e6, Cores: 2}
	}
	source := make(coord.StaticRelays, o.relays)
	for i := range source {
		source[i] = core.RelayEstimate{
			Name:        fmt.Sprintf("relay%02d", i),
			EstimateBps: o.baseMbit * 1e6 * (1 + 0.5*float64(i)),
		}
	}

	if o.sim {
		// Zero-sigma paths consume no randomness, so slot results — and
		// therefore each round's v3bw view — are byte-deterministic no
		// matter how the worker pool interleaves.
		paths := make([]core.PathModel, o.measurers)
		for i := range paths {
			paths[i] = core.PathModel{RTT: 40 * time.Millisecond, LinkBps: 1e9}
		}
		backend := core.NewSimBackend(paths, 1)
		for _, r := range source {
			backend.AddTarget(r.Name, &core.SimTarget{
				Relay:    relay.New(relay.Config{Name: r.Name, TorCapBps: r.EstimateBps}),
				LinkBps:  2e9,
				Behavior: core.BehaviorHonest,
			})
			log.event("relay", fmt.Sprintf("%s: simulated, capacity %.1f Mbit/s", r.Name, r.EstimateBps/1e6),
				"name", r.Name, "backend", "sim", "capacity_mbit", r.EstimateBps/1e6)
		}
		return core.NewBWAuth(o.name, team, backend, p), source, nil, func() {}, nil
	}

	ids := make([]wire.Identity, o.measurers)
	for i := range ids {
		var err error
		if ids[i], err = wire.NewIdentity(); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	addrs := make(map[string]string, o.relays)
	var listeners []net.Listener
	closeListeners := func() {
		for _, l := range listeners {
			l.Close()
		}
	}
	for _, r := range source {
		tgt := wire.NewTarget(wire.TargetConfig{RateBps: r.EstimateBps})
		for _, id := range ids {
			tgt.Authorize(id.Pub)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeListeners()
			return nil, nil, nil, nil, err
		}
		listeners = append(listeners, l)
		go tgt.Serve(l)
		addrs[r.Name] = l.Addr().String()
		log.event("relay", fmt.Sprintf("%s: %s, capacity %.1f Mbit/s", r.Name, l.Addr(), r.EstimateBps/1e6),
			"name", r.Name, "addr", l.Addr().String(), "capacity_mbit", r.EstimateBps/1e6)
	}

	pool := coord.NewPool(o.poolSize, o.poolTTL)
	members := make([]wire.Member, len(ids))
	for i := range ids {
		member := i
		members[i] = wire.Member{
			Identity: ids[i],
			Dial: func(target string) wire.Dialer {
				addr := addrs[target]
				// Pool key carries the measurer identity so reuse never
				// crosses identities.
				key := fmt.Sprintf("%s/m%d", target, member)
				return pool.Dialer(key, func() (net.Conn, error) {
					return net.Dial("tcp", addr)
				})
			},
		}
	}
	backend := &wire.Backend{Members: members, CheckProb: p.CheckProb, Seed: time.Now().UnixNano()}
	cleanup := func() {
		closeListeners()
		pool.Close()
	}
	return core.NewBWAuth(o.name, team, backend, p), source, pool, cleanup, nil
}

// submitter signs each round's view with this BWAuth's identity and
// delivers it to the merge node over one cached authenticated
// connection, redialed transparently if the merge node restarts between
// rounds. Its coord_rpc_* counters land in the registry /metrics serves.
type submitter struct {
	log    *logger
	client *rpc.Client
	id     wire.Identity
	name   string
}

func newSubmitter(d *daemon) (*submitter, error) {
	addr := d.opts.dirauthAddr
	id := rpc.DeriveIdentity(d.opts.authSecret, d.opts.name)
	client, err := rpc.NewClient(rpc.ClientConfig{
		Dial: func(ctx context.Context) (io.ReadWriteCloser, error) {
			var nd net.Dialer
			return nd.DialContext(ctx, "tcp", addr)
		},
		Identity: id,
		Counters: d.counters,
	})
	if err != nil {
		return nil, err
	}
	return &submitter{log: d.log, client: client, id: id, name: d.opts.name}, nil
}

// submit sends one round's view. A round cut short by shutdown (ctx
// already cancelled) is partial and is skipped, not sent. A
// *rpc.ServerError is a protocol-level rejection (stale after a restart
// republish, version skew) — logged, connection kept; transport errors
// already got the client's one redial retry, so what reaches here is a
// down or unreachable merge node, and the round simply goes unsubmitted
// (the next round retries with a fresh dial).
func (s *submitter) submit(ctx context.Context, round int, f *dirauth.BandwidthFile) {
	if ctx.Err() != nil {
		s.log.event("submit_skipped", fmt.Sprintf("  submission round %d skipped: round interrupted", round),
			"round", round, "reason", "round interrupted")
		return
	}
	body, _, err := f.Render()
	if err != nil {
		s.log.event("submit_error", "  submission render: "+err.Error(),
			"round", round, "error", err.Error())
		return
	}
	sub := &dirauth.Submission{
		BWAuth:  s.name,
		Round:   round,
		Version: dirauth.SubmissionVersionMax,
		Body:    body,
	}
	sub.Sign(s.id.Priv)
	callCtx, cancel := context.WithTimeout(ctx, submitTimeout)
	defer cancel()
	resp, err := s.client.Call(callCtx, rpc.MethodSubmitV3BW, sub.Encode())
	var se *rpc.ServerError
	switch {
	case err == nil:
		s.log.event("submit", fmt.Sprintf("  submitted round %d: %s", round, resp),
			"round", round, "response", string(resp))
	case errors.As(err, &se):
		s.log.event("submit_rejected", fmt.Sprintf("  submission round %d rejected: %s", round, se.Msg),
			"round", round, "reason", se.Msg)
	default:
		s.log.event("submit_error", fmt.Sprintf("  submission round %d failed: %v", round, err),
			"round", round, "error", err.Error())
	}
}

package main

// coordd's -dirauth role: instead of measuring, the process runs the
// directory-authority side of the distributed control plane — an
// authenticated RPC listener accepting signed v3bw submissions from
// BWAuth columns (coordd -dirauth-addr), the internal/dirauth merge
// service folding the fresh views into a median-of-views bandwidth file,
// the observability plane serving the merged /v3bw plus /dirauth status,
// and (with -state-dir) the durable store persisting each accepted
// submission so a restarted merge node recovers its freshness windows
// and merged output without waiting for every BWAuth to resubmit.

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"strings"
	"sync"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/obs"
	"flashflow/internal/rpc"
	"flashflow/internal/store"
)

// runDirauth is the -dirauth role's main loop: build the merge service
// (recovering persisted views first), serve RPC submissions until the
// context is cancelled, then drain and checkpoint.
func runDirauth(ctx context.Context, d *daemon) error {
	o, log := d.opts, d.log
	names := strings.Split(o.bwauths, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	// Demo key management (see OPERATIONS.md): both sides derive each
	// BWAuth's keypair from the shared secret and the BWAuth's name. A
	// production deployment registers real per-BWAuth public keys here
	// and never holds their private halves.
	keys := make(map[string]ed25519.PublicKey, len(names))
	authorized := make([]ed25519.PublicKey, 0, len(names))
	for _, n := range names {
		if n == "" {
			return fmt.Errorf("coordd: empty BWAuth name in -bwauths %q", o.bwauths)
		}
		id := rpc.DeriveIdentity(o.authSecret, n)
		keys[n] = id.Pub
		authorized = append(authorized, id.Pub)
	}

	// Durable state: each accepted submission is WAL-appended, and a full
	// checkpoint is taken every -checkpoint-every "rounds" of submissions
	// (len(names) accepts). stateMu guards the state struct; the store
	// serializes its own file access.
	state := store.NewState()
	if d.store != nil {
		var err error
		if state, err = d.store.Load(); err != nil {
			return fmt.Errorf("coordd: load state: %w", err)
		}
	}
	var stateMu sync.Mutex
	accepts := 0
	ckptAccepts := o.ckptEvery * len(names)

	svc, err := dirauth.NewMergeService(dirauth.MergeConfig{
		Keys:     keys,
		FreshFor: o.freshFor,
		MinViews: o.minViews,
		Producer: "dirauth",
		Counters: d.counters,
		OnAccept: func(v dirauth.View) {
			log.event("submission",
				fmt.Sprintf("submission: %s round %d (%d bytes)", v.BWAuth, v.Round, len(v.Body)),
				"bwauth", v.BWAuth, "round", v.Round, "bytes", len(v.Body))
			stateMu.Lock()
			defer stateMu.Unlock()
			state.Submissions[v.BWAuth] = store.SubmissionRecord{
				Round: v.Round, Version: v.Version, Unix: v.Received.Unix(),
				Body: append([]byte(nil), v.Body...),
			}
			if d.store == nil {
				return
			}
			if err := d.store.Append(store.Record{
				Kind: store.KindSubmission, Relay: v.BWAuth, Round: v.Round,
				Version: v.Version, Unix: v.Received.Unix(), Body: v.Body,
			}); err != nil {
				log.event("store_error", "  store append: "+err.Error(), "error", err.Error())
			}
			accepts++
			if ckptAccepts > 0 && accepts%ckptAccepts == 0 {
				if err := d.store.Checkpoint(state); err != nil {
					log.event("store_error", "  store checkpoint: "+err.Error(), "error", err.Error())
				}
			}
		},
		OnMerge: func(m dirauth.Merged) {
			if err := d.snapshot.Publish(m.Round, m.File, time.Now()); err != nil {
				log.event("snapshot_error", "  merged snapshot render: "+err.Error(),
					"round", m.Round, "error", err.Error())
			}
			human := fmt.Sprintf("merge: round %d from %d views (%s), %d relays",
				m.Round, len(m.Views), strings.Join(m.Views, ","), len(m.File.Entries))
			if len(m.SplitView) > 0 {
				human += fmt.Sprintf("; split-view suspects: %s", strings.Join(m.SplitView, ","))
			}
			log.event("merge", human,
				"round", m.Round, "views", m.Views, "relays", len(m.File.Entries),
				"split_view", m.SplitView)
		},
	})
	if err != nil {
		return err
	}

	// Recover persisted views: freshness windows resume from the original
	// receipt times, and a merge (if enough views are still fresh)
	// republishes /v3bw before the listener even opens.
	if len(state.Submissions) > 0 {
		for name, sub := range state.Submissions {
			if err := svc.Restore(name, sub.Round, sub.Version, sub.Body, time.Unix(sub.Unix, 0)); err != nil {
				log.event("recover_error", "coordd: restore submission: "+err.Error(),
					"bwauth", name, "error", err.Error())
			}
		}
		log.event("recover",
			fmt.Sprintf("coordd: recovered %d persisted submission(s) from %s", len(state.Submissions), o.stateDir),
			"state_dir", o.stateDir, "submissions", len(state.Submissions))
		if _, err := svc.Remerge(); err != nil {
			log.event("recover", "coordd: no merge from recovered views: "+err.Error(), "error", err.Error())
		}
	}

	srv, err := rpc.NewServer(rpc.ServerConfig{
		Authorized:    authorized,
		Counters:      d.counters,
		CounterPrefix: "dirauth_rpc",
		Handler: func(peer ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
			if method != rpc.MethodSubmitV3BW {
				return nil, fmt.Errorf("unknown method %d", method)
			}
			sub, err := dirauth.DecodeSubmission(body)
			if err != nil {
				return nil, err
			}
			merged, err := svc.Submit(sub)
			if err != nil {
				return nil, err
			}
			if merged == nil {
				return fmt.Appendf(nil, "accepted %s round %d; awaiting more views", sub.BWAuth, sub.Round), nil
			}
			return fmt.Appendf(nil, "accepted %s round %d; merged round %d over %d views",
				sub.BWAuth, sub.Round, merged.Round, len(merged.Views)), nil
		},
	})
	if err != nil {
		return err
	}
	addr, err := srv.Start(o.rpcAddr)
	if err != nil {
		return fmt.Errorf("coordd: rpc listener: %w", err)
	}
	log.event("rpc", fmt.Sprintf("dirauth: rpc on %s, registered bwauths: %s", addr, strings.Join(names, ",")),
		"addr", addr.String(), "bwauths", names)

	if err := d.serve(obs.Config{Merge: svc}, "/metrics /dirauth /v3bw"); err != nil {
		srv.Close()
		return err
	}

	<-ctx.Done()
	log.event("shutdown", "coordd: dirauth mode interrupted — draining")
	srv.Close()
	d.drain(nil)
	if d.store != nil {
		stateMu.Lock()
		if err := d.store.Checkpoint(state); err != nil {
			log.event("store_error", "coordd: final checkpoint: "+err.Error(), "error", err.Error())
		}
		stateMu.Unlock()
	}
	d.dumpCounters()
	return nil
}

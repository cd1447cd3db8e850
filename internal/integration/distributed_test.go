// Package integration holds cross-package end-to-end tests. This file
// proves the distributed control plane's core equivalence claim: three
// BWAuth column processes (each one coordinator column submitting signed
// views over the authenticated RPC) produce, through the dirauth merge
// service, a bandwidth file byte-identical to what a single-process
// coordinator running the same three BWAuths over the same population
// publishes. The transport is net.Pipe so the test exercises the real
// frame/handshake/submission path without sockets or sleeps.
package integration

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"flashflow/internal/coord"
	"flashflow/internal/core"
	"flashflow/internal/dirauth"
	"flashflow/internal/relay"
	"flashflow/internal/rpc"
	"flashflow/internal/wire"
)

const (
	relayCount = 4
	measurers  = 2
	baseMbit   = 8.0
)

// population builds one BWAuth's deterministic sim column: zero-sigma
// paths consume no randomness, so every coordinator sees identical slot
// results for the same relay regardless of scheduling interleave — the
// property the byte-equality assertions below depend on.
func population(name string) (*core.BWAuth, coord.StaticRelays, core.Params) {
	p := core.DefaultParams()
	p.CheckProb = 0
	paths := make([]core.PathModel, measurers)
	for i := range paths {
		paths[i] = core.PathModel{RTT: 40 * time.Millisecond, LinkBps: 1e9}
	}
	backend := core.NewSimBackend(paths, 1)
	team := make([]*core.Measurer, measurers)
	for i := range team {
		team[i] = &core.Measurer{Name: fmt.Sprintf("m%d", i), CapacityBps: 500e6, Cores: 2}
	}
	var source coord.StaticRelays
	for i := 0; i < relayCount; i++ {
		rname := fmt.Sprintf("relay%02d", i)
		rate := baseMbit * 1e6 * (1 + 0.5*float64(i))
		backend.AddTarget(rname, &core.SimTarget{
			Relay:    relay.New(relay.Config{Name: rname, TorCapBps: rate}),
			LinkBps:  2e9,
			Behavior: core.BehaviorHonest,
		})
		source = append(source, core.RelayEstimate{Name: rname, EstimateBps: rate})
	}
	return core.NewBWAuth(name, team, backend, p), source, p
}

// runColumn measures one round with a single-BWAuth coordinator and
// returns the published view.
func runColumn(t *testing.T, name string) *dirauth.BandwidthFile {
	t.Helper()
	auth, source, p := population(name)
	var view *dirauth.BandwidthFile
	c, err := coord.New(coord.Config{
		Params:      p,
		Workers:     4,
		MaxAttempts: 1,
		MaxRounds:   1,
		OnSnapshot:  func(_ int, f *dirauth.BandwidthFile) { view = f },
	}, []*core.BWAuth{auth}, source)
	if err != nil {
		t.Fatalf("coord.New(%s): %v", name, err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	if view == nil {
		t.Fatalf("%s published no snapshot", name)
	}
	return view
}

func render(t *testing.T, f *dirauth.BandwidthFile) []byte {
	t.Helper()
	body, _, err := f.Render()
	if err != nil {
		t.Fatalf("render: %v", err)
	}
	return body
}

// TestDistributedMergeMatchesSingleProcess is the ISSUE's acceptance
// check in miniature: three independent one-BWAuth coordinators submit
// signed views through the real RPC server into a merge service, and the
// merged body must equal byte-for-byte both the direct MergeMedianFile
// of the views and the snapshot a single three-BWAuth coordinator
// publishes for the same population.
func TestDistributedMergeMatchesSingleProcess(t *testing.T) {
	names := []string{"bw0", "bw1", "bw2"}

	// Single-process baseline: one coordinator, three BWAuth columns over
	// identical copies of the population.
	var auths []*core.BWAuth
	var source coord.StaticRelays
	var p core.Params
	for _, n := range names {
		a, s, pp := population(n)
		auths, source, p = append(auths, a), s, pp
	}
	var singleBody []byte
	c, err := coord.New(coord.Config{
		Params:      p,
		Workers:     4,
		MaxAttempts: 1,
		MaxRounds:   1,
		OnSnapshot:  func(_ int, f *dirauth.BandwidthFile) { singleBody = render(t, f) },
	}, auths, source)
	if err != nil {
		t.Fatalf("coord.New single-process: %v", err)
	}
	if err := c.Run(context.Background()); err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	if singleBody == nil {
		t.Fatal("single-process coordinator published no snapshot")
	}

	// Distributed: a merge node wired like coordd -dirauth — but with the
	// single-process producer name so outputs compare byte-for-byte — fed
	// over net.Pipe by authenticated RPC clients.
	ids := make(map[string]wire.Identity, len(names))
	keys := make(map[string]ed25519.PublicKey, len(names))
	authorized := make([]ed25519.PublicKey, 0, len(names))
	for _, n := range names {
		id := rpc.DeriveIdentity("it-secret", n)
		ids[n] = id
		keys[n] = id.Pub
		authorized = append(authorized, id.Pub)
	}

	var merged *dirauth.Merged
	svc, err := dirauth.NewMergeService(dirauth.MergeConfig{
		Keys:     keys,
		FreshFor: time.Hour,
		MinViews: len(names),
		Producer: "coord",
		OnMerge:  func(m dirauth.Merged) { merged = &m },
	})
	if err != nil {
		t.Fatalf("merge service: %v", err)
	}
	srv, err := rpc.NewServer(rpc.ServerConfig{
		Authorized: authorized,
		Handler: func(_ ed25519.PublicKey, method uint8, body []byte) ([]byte, error) {
			if method != rpc.MethodSubmitV3BW {
				return nil, fmt.Errorf("unknown method %d", method)
			}
			sub, err := dirauth.DecodeSubmission(body)
			if err != nil {
				return nil, err
			}
			if _, err := svc.Submit(sub); err != nil {
				return nil, err
			}
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatalf("rpc server: %v", err)
	}
	defer srv.Close()

	views := make([]*dirauth.BandwidthFile, 0, len(names))
	for _, n := range names {
		view := runColumn(t, n)
		views = append(views, view)
		sub := &dirauth.Submission{
			BWAuth:  n,
			Round:   1,
			Version: dirauth.SubmissionVersionMax,
			Body:    render(t, view),
		}
		sub.Sign(ids[n].Priv)
		cli, err := rpc.NewClient(rpc.ClientConfig{
			Dial: func(context.Context) (io.ReadWriteCloser, error) {
				a, b := net.Pipe()
				go srv.ServeConn(b)
				return a, nil
			},
			Identity: ids[n],
		})
		if err != nil {
			t.Fatalf("client %s: %v", n, err)
		}
		if _, err := cli.Call(context.Background(), rpc.MethodSubmitV3BW, sub.Encode()); err != nil {
			t.Fatalf("submit %s: %v", n, err)
		}
		cli.Close()
	}
	if merged == nil {
		t.Fatal("merge service never merged despite all views submitted")
	}

	// Equivalence 1: the service's merge is the direct median-of-views.
	directBody := render(t, dirauth.MergeMedianFile("coord", views[0].At, views))
	if !bytes.Equal(merged.Body, directBody) {
		t.Errorf("service merge differs from direct MergeMedianFile:\n--- service\n%s--- direct\n%s", merged.Body, directBody)
	}

	// Equivalence 2: the distributed pipeline reproduces the
	// single-process coordinator's published snapshot byte-for-byte.
	if !bytes.Equal(merged.Body, singleBody) {
		t.Errorf("distributed merge differs from single-process snapshot:\n--- distributed\n%s--- single\n%s", merged.Body, singleBody)
	}
}

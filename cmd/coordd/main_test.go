package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"flashflow/internal/dirauth"
	"flashflow/internal/metrics"
	"flashflow/internal/rpc"
)

// eventLog is a daemon's stdout in -log-format json: it records every
// event line and lets a test block until an event of a given kind has
// been written.
type eventLog struct {
	mu      sync.Mutex
	partial []byte
	events  []map[string]any
	added   chan struct{} // closed and replaced on every new event
}

func newEventLog() *eventLog { return &eventLog{added: make(chan struct{})} }

func (l *eventLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.partial = append(l.partial, p...)
	for {
		nl := bytes.IndexByte(l.partial, '\n')
		if nl < 0 {
			return len(p), nil
		}
		var ev map[string]any
		if err := json.Unmarshal(l.partial[:nl], &ev); err == nil {
			l.events = append(l.events, ev)
			close(l.added)
			l.added = make(chan struct{})
		}
		l.partial = l.partial[nl+1:]
	}
}

// all returns every recorded event of the given kind.
func (l *eventLog) all(kind string) []map[string]any {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []map[string]any
	for _, ev := range l.events {
		if ev["event"] == kind {
			out = append(out, ev)
		}
	}
	return out
}

// wait blocks until an event of the given kind is recorded and returns
// the first one.
func (l *eventLog) wait(t *testing.T, kind string) map[string]any {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		l.mu.Lock()
		added := l.added
		l.mu.Unlock()
		if evs := l.all(kind); len(evs) > 0 {
			return evs[0]
		}
		select {
		case <-added:
		case <-deadline:
			t.Fatalf("no %q event logged", kind)
		}
	}
}

// runJSON runs the daemon to completion with JSON logging.
func runJSON(args ...string) (*eventLog, error) {
	log := newEventLog()
	err := run(context.Background(), append(args, "-log-format", "json"), log)
	return log, err
}

// runToEnd is runJSON for the test goroutine: a daemon error fails the test.
func runToEnd(t *testing.T, args ...string) *eventLog {
	t.Helper()
	log, err := runJSON(args...)
	if err != nil {
		t.Fatalf("coordd %s: %v", strings.Join(args, " "), err)
	}
	return log
}

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

// TestCrashRecovery is the durable-state smoke: two rounds against a
// state directory, then a restart that resumes after round 2 and runs
// round 3.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	runToEnd(t, "-sim", "-rounds", "2", "-interval", "0", "-state-dir", dir)
	second := runToEnd(t, "-sim", "-rounds", "1", "-interval", "0", "-state-dir", dir)

	recovered := second.all("recover")
	if len(recovered) != 1 || recovered[0]["round"] != float64(2) {
		t.Fatalf("restart recover events = %v, want one resuming after round 2", recovered)
	}
	rounds := second.all("round")
	if len(rounds) != 1 || rounds[0]["round"] != float64(3) {
		t.Fatalf("restart round events = %v, want round 3", rounds)
	}
}

// TestDistributedTopology runs the multi-node deployment in process: a
// merge node and three -sim BWAuth columns submitting two rounds each.
// Two independent topologies must merge to byte-identical bodies.
func TestDistributedTopology(t *testing.T) {
	first := runTopology(t)
	second := runTopology(t)
	if !bytes.Equal(first, second) {
		t.Fatalf("merged v3bw differs between identical topologies:\n%s\n---\n%s", first, second)
	}
	if !bytes.Contains(first, []byte("\nproducer=dirauth\n")) {
		t.Errorf("merged v3bw lacks the merge node's producer:\n%s", first)
	}
	if n := bytes.Count(first, []byte("\nnode_id=")); n != 4 {
		t.Errorf("merged v3bw has %d relays, want 4:\n%s", n, first)
	}
}

// runTopology runs one merge node plus three columns to completion and
// returns the merged /v3bw body.
func runTopology(t *testing.T) []byte {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	merge := newEventLog()
	mergeDone := make(chan error, 1)
	go func() {
		mergeDone <- run(ctx, []string{"-dirauth", "-rpc-addr", "127.0.0.1:0", "-http-addr", "127.0.0.1:0",
			"-bwauths", "bw0,bw1,bw2", "-auth-secret", "test", "-min-views", "3", "-log-format", "json"}, merge)
	}()
	defer func() {
		cancel()
		if err := <-mergeDone; err != nil {
			t.Errorf("merge node: %v", err)
		}
	}()
	rpcAddr := merge.wait(t, "rpc")["addr"].(string)
	httpBase := "http://" + merge.wait(t, "http")["addr"].(string)

	var wg sync.WaitGroup
	for i := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := fmt.Sprintf("bw%d", i)
			col, err := runJSON("-name", name, "-dirauth-addr", rpcAddr, "-auth-secret", "test",
				"-sim", "-rounds", "2", "-interval", "0")
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if n := len(col.all("submit")); n != 2 {
				t.Errorf("%s: %d accepted submissions, want 2", name, n)
			}
		}()
	}
	wg.Wait()

	metricsBody := get(t, httpBase+"/metrics")
	if !regexp.MustCompile(`(?m)^flashflow_dirauth_submissions_accepted 6$`).Match(metricsBody) {
		t.Errorf("merge node did not accept 6 submissions:\n%s", metricsBody)
	}
	var status struct {
		MergedRound int `json:"merged_round"`
	}
	if err := json.Unmarshal(get(t, httpBase+"/dirauth"), &status); err != nil {
		t.Fatal(err)
	}
	if status.MergedRound != 2 {
		t.Errorf("merged round = %d, want 2", status.MergedRound)
	}
	return get(t, httpBase+"/v3bw")
}

// TestSimDeterministic: the noise-free sim publishes byte-identical
// snapshots across runs, which is what makes it usable as a reference.
func TestSimDeterministic(t *testing.T) {
	var bodies [2][]byte
	for i := range bodies {
		dir := t.TempDir()
		runToEnd(t, "-sim", "-rounds", "2", "-interval", "0", "-relays", "12", "-snapshot-dir", dir)
		var err error
		if bodies[i], err = os.ReadFile(filepath.Join(dir, "v3bw-round-00002.txt")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("two -sim runs published different v3bw bodies:\n%s\n---\n%s", bodies[0], bodies[1])
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-dirauth", "-dirauth-addr", "127.0.0.1:1", "-auth-secret", "s"},
		{"-dirauth-addr", "127.0.0.1:1"},
		{"-dirauth"},
		{"-slot", "0"},
		{"-relays", "0"},
		{"-log-format", "xml"},
	} {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("coordd %s: no error", strings.Join(args, " "))
		}
	}
}

// TestSubmitSkippedOnInterruptedRound: the partial round finished after
// shutdown is logged as skipped and never reaches the merge node.
func TestSubmitSkippedOnInterruptedRound(t *testing.T) {
	log := newEventLog()
	client, err := rpc.NewClient(rpc.ClientConfig{
		Dial: func(context.Context) (io.ReadWriteCloser, error) {
			t.Error("interrupted round dialed the merge node")
			return nil, net.ErrClosed
		},
		Identity: rpc.DeriveIdentity("test", "bw0"),
		Counters: metrics.NewCounters(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	s := &submitter{log: &logger{w: log, json: true}, client: client, id: rpc.DeriveIdentity("test", "bw0"), name: "bw0"}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := dirauth.NewBandwidthFile("coord", 0)
	f.Set("relay00", 8e6, 8e6)
	s.submit(ctx, 1, f)

	skipped := log.all("submit_skipped")
	if len(skipped) != 1 || skipped[0]["reason"] != "round interrupted" || skipped[0]["round"] != float64(1) {
		t.Fatalf("submit_skipped events = %v, want one for round 1 with reason \"round interrupted\"", skipped)
	}
	if errs := log.all("submit_error"); len(errs) != 0 {
		t.Fatalf("interrupted round logged submit errors: %v", errs)
	}
}

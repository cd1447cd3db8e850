package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public seam. Spans of one round
// share its round number; parent links a span to the span that caused it
// (0 for a round's top-level phases).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	// Col is the BWAuth column the span ran for; -1 marks the merge node
	// and the benchmark's own client.
	Col   int   `json:"col"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	Self  int64 `json:"self_ns"`
}

func (s span) dur() int64         { return s.End - s.Start }
func (s span) interval() interval { return interval{s.Start, s.End} }

// tracer holds spans in memory while recording is on and writes them out
// when the run ends. Times are nanoseconds since the tracer's epoch, read
// from the monotonic clock.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// newID reserves a span ID before the span ends, so children that start
// inside it can name it as their parent.
func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// record stores a finished span if recording is on; id may be 0 to have
// one assigned.
func (t *tracer) record(id, parent uint64, round, col int, name string, start, end int64) {
	if !t.on.Load() {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Round: round, Name: name, Col: col, Start: start, End: end})
	t.mu.Unlock()
}

// finish computes every span's self time — its duration minus the part of
// it its children cover — and returns the spans.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[uint64][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	for i := range t.spans {
		t.spans[i].Self = selfTime(t.spans[i].interval(), children[t.spans[i].ID])
	}
	return t.spans
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// phaseNames are the spans that make up a round's phases; they hang off
// the round's root span.
var phaseNames = map[string]bool{
	"coord.pre_exec": true, "coord.exec": true, "coord.post_exec": true,
	"coord.on_snapshot": true, "http.get": true,
}

// adopt gives every parentless span of a traced round a parent. Phase
// spans hang off the round's root; any other span hangs off the narrowest
// span of its round that encloses it — of its own column, or of any
// column for merge-node spans — or else off the root. Enclosure by time
// stands in for the call chain the wrappers cannot see across.
func (t *tracer) adopt() {
	t.mu.Lock()
	defer t.mu.Unlock()
	roots := make(map[int]uint64)
	byRound := make(map[int][]int)
	for i, s := range t.spans {
		if s.Name == "round" {
			roots[s.Round] = s.ID
		}
		byRound[s.Round] = append(byRound[s.Round], i)
	}
	for i, s := range t.spans {
		if s.Parent != 0 || s.Name == "round" {
			continue
		}
		t.spans[i].Parent = roots[s.Round]
		if phaseNames[s.Name] {
			continue
		}
		best := -1
		for _, j := range byRound[s.Round] {
			p := t.spans[j]
			if j == i || p.Name == "round" || (s.Col >= 0 && p.Col != s.Col) || !encloses(p, s) {
				continue
			}
			if best < 0 || p.dur() < t.spans[best].dur() {
				best = j
			}
		}
		if best >= 0 {
			t.spans[i].Parent = t.spans[best].ID
		}
	}
}

// encloses reports whether p covers s, breaking ties between equal
// intervals by ID so two spans never adopt each other.
func encloses(p, s span) bool {
	if p.Start > s.Start || p.End < s.End {
		return false
	}
	return p.dur() > s.dur() || p.ID < s.ID
}

package main

import (
	"io"
	"net/http"
	"sync"
	"time"
)

// openLoop reads /v3bw on a fixed schedule regardless of how fast answers
// come back: request i is due at start + i/rate and is timed from when it
// was due. Each of conns readers owns every conns-th request and one
// keep-alive connection; a reader still busy when its next request falls
// due sends it late, and the wait counts in that request's latency.
type openLoop struct {
	url   string
	rate  float64
	conns int

	stop chan struct{}
	done sync.WaitGroup

	mu        sync.Mutex
	latencies []float64 // seconds from due to body read
	lags      []float64 // seconds an idle reader woke after its due time
	failed    int
}

func newOpenLoop(url string, rate float64, conns int) *openLoop {
	return &openLoop{url: url, rate: rate, conns: conns, stop: make(chan struct{})}
}

// start launches the readers.
func (o *openLoop) start() {
	begin := time.Now()
	interval := time.Duration(float64(time.Second) / o.rate)
	for r := 0; r < o.conns; r++ {
		client := &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		}
		o.done.Add(1)
		go func() {
			defer o.done.Done()
			defer client.CloseIdleConnections()
			timer := time.NewTimer(0)
			defer timer.Stop()
			for i := r + 1; ; i += o.conns {
				due := begin.Add(time.Duration(i) * interval)
				wait := time.Until(due)
				timer.Reset(wait)
				select {
				case <-o.stop:
					return
				case <-timer.C:
				}
				if wait > 0 {
					o.mu.Lock()
					o.lags = append(o.lags, time.Since(due).Seconds())
					o.mu.Unlock()
				}
				o.read(client, due)
			}
		}()
	}
}

func (o *openLoop) read(client *http.Client, due time.Time) {
	resp, err := client.Get(o.url)
	var n int64
	if err == nil {
		n, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && (resp.StatusCode != http.StatusOK || n != resp.ContentLength) {
			err = io.ErrUnexpectedEOF
		}
	}
	lat := time.Since(due).Seconds()
	o.mu.Lock()
	defer o.mu.Unlock()
	if err != nil {
		o.failed++
		return
	}
	o.latencies = append(o.latencies, lat)
}

// halt stops the readers and waits for their last reads to finish.
func (o *openLoop) halt() {
	close(o.stop)
	o.done.Wait()
}

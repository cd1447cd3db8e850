package wire

import (
	"math"
	"net"
	"testing"
	"time"
)

// TestFlowWindowCells pins the in-flight window rule: the allocation's
// bandwidth-delay product over rtt plus a pacing quantum at each end,
// clamped to [minWindowCells, min(inflightWindow·nCirc, maxWindowCells)].
func TestFlowWindowCells(t *testing.T) {
	loopback := 200 * time.Microsecond
	for _, tc := range []struct {
		name  string
		rate  float64
		rtt   time.Duration
		nCirc int
		want  int64
	}{
		// One of two measurers at 2.5× a 1 Gbit/s target, 8 sockets each:
		// the window still reaches the cap on fast relays.
		{"gbit-target", 1.25e9, loopback, 8, maxWindowCells},
		// One measurer at 2.7× a 2 Mbit/s target, 4 sockets: the BDP is
		// ~53 cells, under the floor.
		{"2mbit-target", 2.7 * 2 * mbit, loopback, 4, minWindowCells},
		// Between the bounds the window is the BDP itself:
		// 50 Mbit/s × 40.2 ms / (514 B × 8) = 488.8 → 489 cells.
		{"50mbit-alloc", 50 * mbit, loopback, 4, 489},
		// A longer round trip widens the window.
		{"50mbit-alloc-wan", 50 * mbit, 40*time.Millisecond + loopback, 4, 976},
		// Unpaced slots keep the fixed per-circuit window.
		{"unpaced-4", 0, loopback, 4, 4 * inflightWindow},
		{"unpaced-16", 0, loopback, 16, maxWindowCells},
		// The per-circuit bound applies to paced slots too.
		{"one-circuit", 1e9, loopback, 1, inflightWindow},
	} {
		if got := flowWindowCells(tc.rate, tc.rtt, tc.nCirc); got != tc.want {
			t.Errorf("%s: flowWindowCells(%g, %v, %d) = %d, want %d", tc.name, tc.rate, tc.rtt, tc.nCirc, got, tc.want)
		}
	}

	// No input yields more cells in flight than the fixed window allowed.
	for _, rate := range []float64{-1, 0, 1, 1e6, 1e9, 1e12, 1e300, math.Inf(1), math.NaN()} {
		for _, rtt := range []time.Duration{0, time.Millisecond, time.Second, time.Hour} {
			for _, n := range []int{1, 2, 4, 8, 16, maxCircuits} {
				got := flowWindowCells(rate, rtt, n)
				limit := min(int64(inflightWindow)*int64(n), maxWindowCells)
				if got > limit || got > maxWindowCells || got < minWindowCells {
					t.Fatalf("flowWindowCells(%g, %v, %d) = %d, outside [%d, %d]", rate, rtt, n, got, minWindowCells, limit)
				}
			}
		}
	}
}

// TestMeasureSlowTargetDrainsPromptly pins the point of sizing the window
// to the allocation: a slow target echoes the slot's last in-flight cells
// within a fraction of a second, on both data planes. With a fixed
// 1,024-cell window this slot took ~2 s — the target needs 2.1 s to echo
// that backlog at 2 Mbit/s.
func TestMeasureSlowTargetDrainsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time measurement slots")
	}
	const rate = 2 * mbit
	for _, plane := range []string{"tcp", "udp"} {
		t.Run(plane, func(t *testing.T) {
			id, err := NewIdentity()
			if err != nil {
				t.Fatal(err)
			}
			addr, tgt, stop := startTarget(t, TargetConfig{RateBps: rate}, id)
			defer stop()
			opts := MeasureOptions{
				Identity: id,
				Sockets:  4,
				RateBps:  2.7 * rate,
				Duration: time.Second,
				Seed:     3,
			}
			if plane == "udp" {
				uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					t.Fatal(err)
				}
				defer uc.Close()
				go tgt.ServeUDP(NewUDPDatagramConn(uc))
				udpAddr := uc.LocalAddr().String()
				opts.DialData = func() (net.Conn, error) { return net.Dial("udp", udpAddr) }
			}
			begin := time.Now()
			res, err := Measure(t.Context(), tcpDialer(addr), opts)
			took := time.Since(begin)
			if err != nil {
				t.Fatalf("Measure: %v", err)
			}
			if limit := opts.Duration + 500*time.Millisecond; took > limit {
				t.Fatalf("slot took %v, want ≤ %v: the echo drain outlived the slot", took, limit)
			}
			got := sumBytes(res.PerSecondBytes) * 8 / opts.Duration.Seconds()
			if math.Abs(got-rate) > 0.15*rate {
				t.Fatalf("estimate %.2f Mbit/s, want within 15%% of %.0f", got/mbit, rate/mbit)
			}
		})
	}
}

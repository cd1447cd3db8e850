package wire

import (
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// muxClient is a scripted measurer: it speaks the wire protocol by hand so
// tests can control exactly how cells interleave across circuits and how
// batches land on the connection — patterns the real Measure sender would
// never produce on its own.
type muxClient struct {
	conn net.Conn
	tr   Transport
	cr   *cellReader
	ks   []*cell.Keystream
}

func dialMuxClient(t *testing.T, addr string, id Identity, nCirc int) *muxClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := clientAuthenticate(conn, id); err != nil {
		t.Fatalf("authenticate: %v", err)
	}
	tr := NewConnTransport(conn)
	cr := newCellReader(tr, make([]byte, cell.SuperBytes))
	ks, err := createCircuits(tr, cr, nCirc)
	if err != nil {
		t.Fatalf("create circuits: %v", err)
	}
	return &muxClient{conn: conn, tr: tr, cr: cr, ks: ks}
}

// dataBatch builds one wire batch of zero-payload MsmtData cells on the
// given circuit IDs (1-based), in order.
func dataBatch(ids []uint32) []byte {
	buf := make([]byte, len(ids)*cell.Size)
	for i, id := range ids {
		cell.PutHeader(buf[i*cell.Size:], id, cell.MsmtData)
	}
	return buf
}

// endCell builds one MsmtEnd cell for the circuit.
func endCell(id uint32) []byte {
	buf := make([]byte, cell.Size)
	cell.PutHeader(buf, id, cell.MsmtEnd)
	return buf
}

// TestMuxInterleavedReassembly drives one connection with randomized
// multi-circuit traffic and checks the demux invariant the whole data plane
// rests on: the k-th MsmtData cell of circuit c to arrive back IS cell k of
// circuit c, byte-identical to the circuit's forward keystream at offset
// k·PayloadSize, no matter how arbitrarily cells from different circuits
// interleave within and across batches. It also tears two circuits down
// mid-stream (their MsmtEnd riding in the same batch as other circuits'
// data) and keeps streaming on the rest — reuse of a torn-down slot's
// ID-space neighbours must not disturb surviving circuits' sequencing.
func TestMuxInterleavedReassembly(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startTarget(t, TargetConfig{}, id)
	defer stop()

	const nCirc = 6
	c := dialMuxClient(t, addr, id, nCirc)
	rng := rand.New(rand.NewSource(42))

	// Reader: verify EVERY echoed data cell against its circuit's keystream
	// at the position implied purely by arrival order, and count per-circuit
	// cells until all ends are echoed.
	recvSeq := make([]uint64, nCirc)
	ends := 0
	readErr := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ends < nCirc {
			cb, err := c.cr.next()
			if err != nil {
				readErr <- err
				return
			}
			idx := int(cell.CircIDOf(cb)) - 1
			switch cmd := cell.CommandOf(cb); cmd {
			case cell.MsmtData:
				if idx < 0 || idx >= nCirc {
					t.Errorf("echo for unknown circuit %d", idx+1)
					readErr <- nil
					return
				}
				if !c.ks[idx].VerifyAt(cell.PayloadOf(cb), recvSeq[idx]*cell.PayloadSize) {
					t.Errorf("circuit %d cell %d: echoed payload is not the forward keystream", idx+1, recvSeq[idx])
					readErr <- nil
					return
				}
				recvSeq[idx]++
			case cell.MsmtEnd:
				ends++
			default:
				t.Errorf("unexpected echo cell %v", cmd)
				readErr <- nil
				return
			}
		}
		readErr <- nil
	}()

	// Sender: randomized batch sizes, randomized circuit pattern per batch,
	// alternating single writes and multi-batch vectored writes. Circuits 1
	// and 2 are torn down after round 20, with their MsmtEnd cells embedded
	// in a batch that also carries live circuits' data.
	live := []uint32{1, 2, 3, 4, 5, 6}
	sent := make([]uint64, nCirc)
	pick := func(k int) []uint32 {
		ids := make([]uint32, k)
		for i := range ids {
			ids[i] = live[rng.Intn(len(live))]
			sent[ids[i]-1]++
		}
		return ids
	}
	for round := 0; round < 60; round++ {
		if round == 20 {
			mixed := dataBatch(pick(5))
			mixed = append(mixed, endCell(1)...)
			live = []uint32{2, 3, 4, 5, 6}
			mixed = append(mixed, dataBatch(pick(3))...)
			mixed = append(mixed, endCell(2)...)
			live = []uint32{3, 4, 5, 6}
			if _, err := c.tr.Write(mixed); err != nil {
				t.Fatalf("send teardown batch: %v", err)
			}
			continue
		}
		switch rng.Intn(3) {
		case 0: // single partial batch
			if _, err := c.tr.Write(dataBatch(pick(1 + rng.Intn(cell.BatchCells)))); err != nil {
				t.Fatalf("send: %v", err)
			}
		case 1: // one full batch
			if _, err := c.tr.Write(dataBatch(pick(cell.BatchCells))); err != nil {
				t.Fatalf("send: %v", err)
			}
		default: // scatter-gather: several batches in one vectored write
			bufs := net.Buffers{
				dataBatch(pick(1 + rng.Intn(cell.BatchCells))),
				dataBatch(pick(1 + rng.Intn(cell.BatchCells))),
				dataBatch(pick(1 + rng.Intn(cell.BatchCells))),
			}
			if err := c.tr.WriteBatches(&bufs); err != nil {
				t.Fatalf("send vectored: %v", err)
			}
		}
	}
	for _, id := range live {
		if _, err := c.tr.Write(endCell(id)); err != nil {
			t.Fatalf("send end: %v", err)
		}
	}

	wg.Wait()
	if err := <-readErr; err != nil {
		t.Fatalf("read echo: %v", err)
	}
	for i := 0; i < nCirc; i++ {
		if recvSeq[i] != sent[i] {
			t.Errorf("circuit %d: echoed %d cells, sent %d", i+1, recvSeq[i], sent[i])
		}
	}
}

// TestMuxDataAfterTeardown checks the target refuses traffic on a circuit
// that was torn down mid-measurement: MsmtData after MsmtEnd must kill the
// connection with an unknown-circuit error, not silently echo garbage.
func TestMuxDataAfterTeardown(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewTarget(TargetConfig{})
	tgt.Authorize(id.Pub)
	defer tgt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	handleErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			handleErr <- err
			return
		}
		handleErr <- tgt.HandleConn(conn)
	}()

	c := dialMuxClient(t, l.Addr().String(), id, 2)
	if _, err := c.tr.Write(dataBatch([]uint32{1, 2, 1})); err != nil {
		t.Fatalf("send: %v", err)
	}
	if _, err := c.tr.Write(endCell(1)); err != nil {
		t.Fatalf("send end: %v", err)
	}
	// Give the target a chance to process the teardown in its own batch,
	// then violate the protocol.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.tr.Write(dataBatch([]uint32{1})); err != nil {
		t.Fatalf("send after end: %v", err)
	}
	select {
	case err := <-handleErr:
		if err == nil || !strings.Contains(err.Error(), "unknown circuit") {
			t.Fatalf("HandleConn error = %v, want unknown-circuit", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("target did not reject data on torn-down circuit")
	}
}

// TestMuxDuplicateCircuitRejected checks a second MsmtCreate reusing a live
// circuit ID kills the connection instead of silently replacing the
// circuit's crypto state.
func TestMuxDuplicateCircuitRejected(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewTarget(TargetConfig{})
	tgt.Authorize(id.Pub)
	defer tgt.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	handleErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			handleErr <- err
			return
		}
		handleErr <- tgt.HandleConn(conn)
	}()

	c := dialMuxClient(t, l.Addr().String(), id, 1)
	dup := make([]byte, cell.Size)
	cell.PutHeader(dup, 1, cell.MsmtCreate)
	if _, err := c.tr.Write(dup); err != nil {
		t.Fatalf("send duplicate create: %v", err)
	}
	select {
	case err := <-handleErr:
		if err == nil || !strings.Contains(err.Error(), "duplicate circuit") {
			t.Fatalf("HandleConn error = %v, want duplicate-circuit", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("target did not reject duplicate circuit ID")
	}
}

// TestMeasureMuxRace runs the real multiplexed data plane — sharded
// senders, the paced vectored writer, and the demux reader all hammering
// one connection's shared state — long enough for the race detector to see
// every pairing. Deliberately NOT skipped under -short: the CI race job
// runs with -short, and this is precisely the test it exists for.
func TestMeasureMuxRace(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	addr, _, stop := startTarget(t, TargetConfig{}, id)
	defer stop()

	res, err := Measure(t.Context(), tcpDialer(addr), MeasureOptions{
		Identity:  id,
		Sockets:   8,
		Duration:  300 * time.Millisecond,
		CheckProb: 0.05,
		Seed:      7,
	})
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.Failed {
		t.Fatal("echo verification failed against an honest target")
	}
	if res.CellsChecked == 0 {
		t.Fatal("no cells spot-checked")
	}
}

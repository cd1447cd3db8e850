package wire

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// Zero-allocation guards for the multiplexed measurement data plane
// (ISSUE 8 acceptance: 0 allocs/cell on the encode, echo, and decode hot
// paths). Each test exercises the exact per-cell operations its wire path
// performs, minus the socket: the socket I/O itself (reads, writes, and
// vectored batch writes on pooled buffers) does not allocate, so these
// guards pin the full per-cell cost.

// TestSenderAssemblyZeroAllocs covers a sender shard's batch assembly:
// the round-robin header rewrite over a zero-payload batch plus the
// window accounting. Payloads are zeroed once per buffer adoption, not
// per send, so the steady-state encode cost is the header alone.
func TestSenderAssemblyZeroAllocs(t *testing.T) {
	buf := cell.GetBatch()
	defer cell.PutBatch(buf)
	out := *buf
	clearPayloads(out)
	window := newFlowWindow(4 * cell.BatchCells)
	const nCirc = 8
	var base int64
	if n := testing.AllocsPerRun(100, func() {
		got := window.tryAcquire(cell.BatchCells)
		for i := int64(0); i < got; i++ {
			id := uint32((base+i)%nCirc) + 1
			cell.PutHeader(out[i*cell.Size:], id, cell.MsmtData)
		}
		base += got
		window.release(got)
	}); n != 0 {
		t.Fatalf("sender assembly path: %v allocs per %d-cell batch, want 0", n, cell.BatchCells)
	}
}

// discardTransport consumes vectored writes the way a real connection
// does — through the *net.Buffers pointer — without the socket.
type discardTransport struct{}

func (discardTransport) Read(p []byte) (int, error)  { return 0, io.EOF }
func (discardTransport) Write(p []byte) (int, error) { return len(p), nil }
func (discardTransport) WriteBatches(bufs *net.Buffers) error {
	_, err := bufs.WriteTo(io.Discard)
	return err
}

// TestWriterGatherZeroAllocs covers the paced writer's gather loop: the
// vector is rebuilt over a long-lived backing array and handed to
// WriteBatches by pointer. The vector variable must live outside the loop
// — a per-iteration declaration escapes through the pointer and costs one
// heap allocation per vectored write (the last steady-state allocation the
// send path had).
func TestWriterGatherZeroAllocs(t *testing.T) {
	var tr Transport = discardTransport{}
	batches := make([]*[]byte, cell.SuperBatches)
	for i := range batches {
		b := cell.GetBatch()
		defer cell.PutBatch(b)
		batches[i] = b
	}
	backing := make(net.Buffers, cell.SuperBatches)
	var bufs net.Buffers
	if n := testing.AllocsPerRun(100, func() {
		bufs = backing[:0]
		for _, b := range batches {
			bufs = append(bufs, (*b)[:cell.BatchBytes])
		}
		if err := tr.WriteBatches(&bufs); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("writer gather path: %v allocs per %d-batch vectored write, want 0", n, cell.SuperBatches)
	}
}

// allocTestMux builds a muxState with nCirc live circuits for hot-path
// guards, bypassing the handshake.
func allocTestMux(t *testing.T, nCirc int) *muxState {
	t.Helper()
	ms := &muxState{t: &Target{}}
	for id := uint32(1); id <= uint32(nCirc); id++ {
		circ, err := cell.NewCircuit(id, []byte("alloc"))
		if err != nil {
			t.Fatal(err)
		}
		ms.circuits.set(id, &circEntry{st: circ.Forward})
	}
	return ms
}

// TestTargetEchoPathZeroAllocs covers serveMux's per-batch work: demux
// into per-circuit spans (rotating IDs so the span set is rebuilt from
// scratch every batch) followed by span-wise decryption — the exact work
// the serve loop does between refill and echo.
func TestTargetEchoPathZeroAllocs(t *testing.T) {
	const nCirc = 8
	ms := allocTestMux(t, nCirc)
	buf := cell.GetBatch()
	defer cell.PutBatch(buf)
	batch := *buf
	for i := 0; i < cell.BatchCells; i++ {
		cell.PutHeader(batch[i*cell.Size:], uint32(i%nCirc)+1, cell.MsmtData)
	}
	var spans spanSet
	scratch := cell.NewSpanScratch()
	// Warm-up: the span set's backing storage grows once, then is reused.
	if _, err := ms.demuxTCP(batch, &spans); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		dataCells, err := ms.demuxTCP(batch, &spans)
		if err != nil {
			t.Fatal(err)
		}
		if dataCells != cell.BatchCells {
			t.Fatalf("demuxed %d data cells, want %d", dataCells, cell.BatchCells)
		}
		for i := 0; i < spans.n; i++ {
			sp := &spans.spans[i]
			sp.st.ApplySpans(batch, sp.offs, scratch)
		}
	}); n != 0 {
		t.Fatalf("target echo path: %v allocs per %d-cell batch, want 0", n, cell.BatchCells)
	}
}

// TestUDPDatagramPathZeroAllocs covers the target's per-datagram work on
// the UDP plane: demux, span decrypt, and the sequence/index stamping —
// everything serveUDPDatagram does between recvfrom and sendto.
func TestUDPDatagramPathZeroAllocs(t *testing.T) {
	const nCirc = 8
	ms := allocTestMux(t, nCirc)
	tgt := ms.t
	dg := make([]byte, udpDatagramBytes)
	scratch := cell.NewSpanScratch()
	var spans spanSet
	var seqs [udpDatagramCells]uint64
	stamp := func() {
		for i := 0; i < udpDatagramCells; i++ {
			cell.PutHeader(dg[i*cell.Size:], uint32(i%nCirc)+1, cell.MsmtData)
		}
	}
	stamp()
	tgt.serveUDPDatagram(ms, dg, &spans, scratch, &seqs) // warm span storage
	if n := testing.AllocsPerRun(100, func() {
		stamp()
		if got := tgt.serveUDPDatagram(ms, dg, &spans, scratch, &seqs); got != udpDatagramCells {
			t.Fatalf("served %d data cells, want %d", got, udpDatagramCells)
		}
	}); n != 0 {
		t.Fatalf("udp datagram path: %v allocs per %d-cell datagram, want 0", n, udpDatagramCells)
	}
}

// TestReaderDecodePathZeroAllocs covers the measurer's echo reader:
// batched refill through cellReader, per-cell header demux, and the shared
// echoVerifier core — deterministic check sampling, keystream verification
// of the sampled cells, and per-second crediting.
func TestReaderDecodePathZeroAllocs(t *testing.T) {
	km := cell.DeriveKeys([]byte("alloc"))
	ks, err := cell.NewKeystream(km.ForwardKey, km.ForwardIV)
	if err != nil {
		t.Fatal(err)
	}
	var res MeasureResult
	v := &echoVerifier{circs: []*cell.Keystream{ks}, res: &res,
		buckets: make([]atomic.Uint64, 60), start: time.Now(),
		seed: 7, threshold: checkThreshold(0.05)}
	cr := newCellReader(newCellStream(), make([]byte, cell.SuperBytes))
	var recvSeq uint64
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < cell.BatchCells; i++ {
			cb, err := cr.next()
			if err != nil {
				t.Fatal(err)
			}
			if cell.CommandOf(cb) != cell.MsmtData {
				t.Fatal("unexpected command")
			}
			idx, err := v.circuit(cb)
			if err != nil {
				t.Fatal(err)
			}
			seq := recvSeq
			recvSeq++
			// The synthetic stream is not a real echo, so the verify
			// outcome is irrelevant — only its allocation behavior is
			// under test.
			v.check(idx, seq, cell.PayloadOf(cb), seq*cell.PayloadSize)
		}
		v.credit(cell.BatchCells)
	}); n != 0 {
		t.Fatalf("reader decode path: %v allocs per %d-cell batch, want 0", n, cell.BatchCells)
	}
	if res.CellsChecked == 0 {
		t.Fatal("check sampling never fired; the guard did not cover the verify path")
	}
}

package wire

import (
	"net"
	"strings"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// udpMeasureOpts is the common shape of the in-memory UDP measurements:
// small enough to finish fast, multi-circuit so the demux and round-robin
// sequencing are exercised, checked densely so verification covers every
// code path.
func udpMeasureOpts(id Identity) MeasureOptions {
	return MeasureOptions{
		Identity:  id,
		Sockets:   8,
		Duration:  300 * time.Millisecond,
		CheckProb: 0.2,
		Seed:      7,
	}
}

func sumBytes(b []float64) float64 {
	var s float64
	for _, v := range b {
		s += v
	}
	return s
}

// TestMeasurePipeTCP runs the full TCP-plane measurement sockets-free: the
// control and data stream share one net.Pipe. Pins that the data plane has
// no hidden dependency on kernel socket behavior (vectored writes, socket
// buffering) beyond the Transport seam.
func TestMeasurePipeTCP(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	tgt := NewTarget(TargetConfig{})
	tgt.Authorize(id.Pub)
	defer tgt.Close()
	client, server := net.Pipe()
	go func() { _ = tgt.HandleConn(server) }()

	res, err := Measure(t.Context(), pipeDialer(client), udpMeasureOpts(id))
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.Failed {
		t.Fatal("verification failed against an honest target")
	}
	if res.CellsChecked == 0 {
		t.Fatal("no cells spot-checked")
	}
	if sumBytes(res.PerSecondBytes) == 0 {
		t.Fatal("no bytes echoed over the pipe")
	}
}

// TestMeasureUDPPipe is the lossless datagram baseline: control over
// net.Pipe, data over the in-memory datagram link. Everything sent must
// come back — the loss accounting exists for real networks, so a perfect
// link must report zero.
func TestMeasureUDPPipe(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, data := startPipeTargetUDP(t, TargetConfig{}, id, nil)
	opts := udpMeasureOpts(id)
	opts.DialData = data

	res, err := Measure(t.Context(), ctrl, opts)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.Failed {
		t.Fatal("verification failed against an honest target")
	}
	if res.CellsChecked == 0 {
		t.Fatal("no cells spot-checked")
	}
	if res.SentCells == 0 {
		t.Fatal("no cells sent")
	}
	if res.LostCells != 0 {
		t.Fatalf("lossless link reported %d lost cells (sent %d)", res.LostCells, res.SentCells)
	}
	if got := sumBytes(res.PerSecondBytes); got != float64(res.SentCells)*cell.Size {
		t.Fatalf("accounted %v bytes, want %v (sent %d cells)", got, float64(res.SentCells)*cell.Size, res.SentCells)
	}
}

// TestMeasureUDPLoss drops exactly one full forward datagram and checks
// the accounting: precisely udpDatagramCells cells lost, the measurement
// itself still succeeding — loss is a number on UDP, not a failure.
func TestMeasureUDPLoss(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, data := startPipeTargetUDP(t, TargetConfig{}, id, func(dc DatagramConn) DatagramConn {
		return &lossyDgramConn{DatagramConn: dc, drop: func(n int) bool { return n == 2 }}
	})
	opts := udpMeasureOpts(id)
	opts.DialData = data

	res, err := Measure(t.Context(), ctrl, opts)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.Failed {
		t.Fatal("verification failed: loss must not corrupt the check stream")
	}
	// Every mid-stream datagram is full-size (the transport only flushes
	// partials at end of slot), so the dropped one held exactly
	// udpDatagramCells cells.
	if res.LostCells != udpDatagramCells {
		t.Fatalf("LostCells = %d, want %d", res.LostCells, udpDatagramCells)
	}
	if res.SentCells <= udpDatagramCells {
		t.Fatalf("sent only %d cells; the slot never got past the dropped datagram", res.SentCells)
	}
}

// TestMeasureUDPReorder swaps consecutive forward datagrams and checks
// reordering is invisible: the target's stamped decrypt index keeps
// verification honest, the sequence accounting reports nothing lost.
func TestMeasureUDPReorder(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, data := startPipeTargetUDP(t, TargetConfig{}, id, func(dc DatagramConn) DatagramConn {
		return &reorderDgramConn{DatagramConn: dc, swaps: 2}
	})
	opts := udpMeasureOpts(id)
	opts.DialData = data

	res, err := Measure(t.Context(), ctrl, opts)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.Failed {
		t.Fatal("verification failed under reordering: the echo must verify at the target's stamped index")
	}
	if res.LostCells != 0 {
		t.Fatalf("reordering (no loss) reported %d lost cells", res.LostCells)
	}
	if res.CellsChecked == 0 {
		t.Fatal("no cells spot-checked")
	}
}

// TestMeasureUDPCorruptTarget pins §5 over datagrams: a target that skips
// its decrypt work echoes cells whose payloads are not the forward
// keystream, and the spot checks catch it. (The corrupt echo still carries
// the plaintext send sequence, so flow control keeps running — the forgery
// is caught by content, not by stalls.)
func TestMeasureUDPCorruptTarget(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	ctrl, data := startPipeTargetUDP(t, TargetConfig{Corrupt: true}, id, nil)
	opts := udpMeasureOpts(id)
	opts.DialData = data

	res, err := Measure(t.Context(), ctrl, opts)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.CellsChecked == 0 {
		t.Fatal("no cells spot-checked")
	}
	if !res.Failed {
		t.Fatal("corrupt target passed verification")
	}
}

// TestMeasureUDPLoopback runs the datagram plane over real sockets:
// TCP control, UDP data, loopback. Loss is possible in principle (kernel
// buffers), so only the protocol outcome is asserted, not zero loss.
func TestMeasureUDPLoopback(t *testing.T) {
	id, err := NewIdentity()
	if err != nil {
		t.Fatal(err)
	}
	addr, tgt, stop := startTarget(t, TargetConfig{}, id)
	defer stop()
	uc, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	go tgt.ServeUDP(NewUDPDatagramConn(uc))
	udpAddr := uc.LocalAddr().String()

	opts := udpMeasureOpts(id)
	opts.DialData = func() (net.Conn, error) { return net.Dial("udp", udpAddr) }
	res, err := Measure(t.Context(), tcpDialer(addr), opts)
	if err != nil {
		t.Fatalf("Measure: %v", err)
	}
	if res.Failed {
		t.Fatal("verification failed against an honest target")
	}
	if res.CellsChecked == 0 {
		t.Fatal("no cells spot-checked")
	}
	if res.SentCells == 0 || res.SentCells == res.LostCells {
		t.Fatalf("no echoes came back: sent %d, lost %d", res.SentCells, res.LostCells)
	}
}

// TestUDPDataAfterBindRejected pins the plane-separation rule: once a
// connection binds a UDP data plane, TCP measurement data is a protocol
// error — allowing it would drive one circuit's sequential crypto state
// from two planes at once.
func TestUDPDataAfterBindRejected(t *testing.T) {
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
	bind := make([]byte, cell.Size)
	cell.PutHeader(bind, 0, cell.MsmtUdp)
	copy(cell.PayloadOf(bind)[:16], []byte("0123456789abcdef"))
	if _, err := c.tr.Write(bind); err != nil {
		t.Fatalf("send bind: %v", err)
	}
	if cb, err := c.cr.next(); err != nil || cell.CommandOf(cb) != cell.MsmtUdp {
		t.Fatalf("bind ack: cell %v, err %v", cell.CommandOf(cb), err)
	}
	if _, err := c.tr.Write(dataBatch([]uint32{1})); err != nil {
		t.Fatalf("send data: %v", err)
	}
	select {
	case err := <-handleErr:
		if err == nil || !strings.Contains(err.Error(), "after UDP bind") {
			t.Fatalf("HandleConn error = %v, want data-after-UDP-bind rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("target accepted TCP data after UDP bind")
	}
}

// TestServeUDPDropsOversizeDatagram pins the datagram framing bound: a
// bound source sending more than udpDatagramCells cells in one datagram —
// possible on any DatagramConn that is not a real UDP socket — is dropped
// as noise, and the loop keeps serving the session.
func TestServeUDPDropsOversizeDatagram(t *testing.T) {
	tgt := NewTarget(TargetConfig{})
	ms := allocTestMux(t, 1)
	ms.t = tgt
	sess := &udpSession{ms: ms, token: udpToken{1}}
	if err := tgt.registerUDP(sess); err != nil {
		t.Fatal(err)
	}
	ms.udp = sess
	cli, srv := newDgramPipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		tgt.ServeUDP(srv)
	}()
	defer func() {
		cli.Close()
		<-served
	}()
	_ = cli.SetReadDeadline(time.Now().Add(5 * time.Second))

	var hello [udpHelloLen]byte
	copy(hello[:8], udpHelloMagic[:])
	copy(hello[8:], sess.token[:])
	buf := make([]byte, cell.SuperBytes)
	if _, err := cli.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	if n, err := cli.Read(buf); err != nil || n != udpHelloLen {
		t.Fatalf("hello ack: %d bytes, err %v", n, err)
	}
	send := func(cells int) {
		dg := make([]byte, cells*cell.Size)
		for i := 0; i < cells; i++ {
			cell.PutHeader(dg[i*cell.Size:], 1, cell.MsmtData)
		}
		if _, err := cli.Write(dg); err != nil {
			t.Fatal(err)
		}
	}
	send(udpDatagramCells + 1)
	send(1)
	if n, err := cli.Read(buf); err != nil || n != cell.Size {
		t.Fatalf("echo: %d bytes, err %v; want only the one-cell datagram's echo", n, err)
	}
}

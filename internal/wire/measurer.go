package wire

import (
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flashflow/internal/cell"
)

// Dialer opens a connection to the target relay.
type Dialer func() (net.Conn, error)

// Session is optionally implemented by connections that outlive a single
// measurement, such as the pooled connections of internal/coord. Measure
// skips the identity handshake on a connection whose session is already
// authenticated (the target keeps the authentication for the life of the
// connection), and marks the session reusable only when the slot ends with
// the protocol in a clean state — every circuit's MsmtEnd echo fully
// drained — so a torn-down or desynchronized connection is never returned
// to a pool.
type Session interface {
	// Authenticated reports whether a previous measurement on this
	// connection already completed the identity handshake.
	Authenticated() bool
	// MarkAuthenticated records a completed identity handshake.
	MarkAuthenticated()
	// MarkReusable records that the measurement ended cleanly and the
	// connection can carry another measurement's circuits.
	MarkReusable()
}

// MeasureOptions configures one measurer's participation in a measurement
// slot.
type MeasureOptions struct {
	// Identity authenticates the measurer to the target.
	Identity Identity
	// Sockets is this measurer's socket share s/m (§4.1). The multiplexed
	// data plane realizes the share as that many concurrent measurement
	// circuits on a single authenticated connection, so the paper's
	// parallelism parameter is preserved while the kernel handles one
	// socket per measurer↔target pair.
	Sockets int
	// RateBps is the measurer's allocation a_i; the connection's single
	// paced writer holds the aggregate to it.
	RateBps float64
	// Duration is the measurement slot length t.
	Duration time.Duration
	// CheckProb is the probability p of verifying an echoed cell's
	// contents (§4.1). Sampling is deterministic in (Seed, circuit, cell
	// sequence), so no sender-side record of checked cells is needed.
	CheckProb float64
	// Seed makes the check sampling reproducible.
	Seed int64
	// DialData, when set, moves the measurement data plane to datagrams:
	// it must open a connected packet socket (typically UDP) to the
	// target's data listener. Control — authentication, circuit creation,
	// teardown — stays on the dialed connection; only MsmtData cells and
	// their echoes travel on the data socket. The result then also carries
	// the loss accounting (SentCells/LostCells).
	DialData Dialer
	// OnSecond, when set, is called once per completed wall-clock second
	// of the slot, in order, with this measurer's echoed bytes during that
	// second. The callback runs on a dedicated goroutine; it must return
	// quickly. It is a live view — cells still in flight at the second
	// boundary land in the authoritative PerSecondBytes of the final
	// MeasureResult.
	OnSecond func(second int, bytes float64)
}

// MeasureResult is one measurer's view of a slot.
type MeasureResult struct {
	// PerSecondBytes[j] is the number of measurement bytes echoed back
	// during second j. Truncated to the completed seconds when the slot
	// was cancelled mid-way.
	PerSecondBytes []float64
	// CellsChecked counts echoed cells whose content was verified.
	CellsChecked int
	// Failed is set when any checked echo had wrong contents; the BWAuth
	// discards the measurement (§4.1).
	Failed bool
	// SentCells is the number of measurement cells put on the wire; only
	// set on the datagram data plane (DialData), where cells can be lost.
	SentCells int64
	// LostCells is how many sent cells never echoed back — the datagram
	// plane's loss signal. Always zero on TCP, where the transport
	// retransmits instead.
	LostCells int64
}

// maxCircuits caps the concurrent circuits one measurement multiplexes on
// a connection. Past a couple hundred, more circuits add per-circuit state
// without adding pipeline depth; a socket share larger than the cap is
// clamped rather than rejected.
const maxCircuits = cell.SuperCells

// inflightWindow is the per-circuit contribution to the connection's
// in-flight cell window, as the paper's clients take "care not to overflow
// circuit queue length limits" (§3.4). Without a window, a fast sender
// buries a slower target in kernel buffers and the slot cannot drain
// cleanly. A small multiple of the batch size keeps batching from starving
// the pipeline.
const inflightWindow = 8 * cell.BatchCells

// maxWindowCells caps the aggregate window across all circuits (~1 MiB in
// flight): beyond that, deeper pipelining only adds drain time.
const maxWindowCells = 2048

// Measure runs one measurer's side of a measurement slot: it opens one
// connection, authenticates, multiplexes opts.Sockets measurement circuits
// onto it, then streams MsmtData cells as fast as the rate allows —
// sharded fillers assembling batches behind a single paced writer that
// ships several batches per vectored write — while one reader demultiplexes
// the echo stream by circuit ID and spot-verifies contents with
// probability p.
//
// Cancelling ctx tears the slot down promptly: the connection is closed
// (and, when ctx carries a deadline, the connection also wears that
// deadline), the send/recv goroutines exit, and Measure returns the
// per-second bytes of the seconds completed before cancellation together
// with ctx.Err().
func Measure(ctx context.Context, dial Dialer, opts MeasureOptions) (MeasureResult, error) {
	if opts.Sockets <= 0 {
		return MeasureResult{}, errors.New("wire: need at least one socket")
	}
	if opts.Duration <= 0 {
		return MeasureResult{}, errors.New("wire: nonpositive duration")
	}
	seconds := int(math.Ceil(opts.Duration.Seconds()))
	nCirc := opts.Sockets
	if nCirc > maxCircuits {
		nCirc = maxCircuits
	}

	// Every circuit accumulates into one shared set of per-second buckets,
	// updated with atomic adds so the echo loop stays lock- and
	// allocation-free while the streamer goroutine below can observe
	// completed seconds concurrently.
	buckets := make([]atomic.Uint64, seconds)
	start := time.Now()

	done := make(chan struct{})
	var streamWG sync.WaitGroup
	if opts.OnSecond != nil {
		streamWG.Add(1)
		go func() {
			defer streamWG.Done()
			streamSeconds(ctx, done, start, buckets, opts.OnSecond)
		}()
	}

	res, err := measureConn(ctx, dial, opts, nCirc, start, buckets)
	close(done)
	streamWG.Wait()

	completed := seconds
	if ctxErr := ctx.Err(); ctxErr != nil {
		// Normalize the teardown errors (closed connections, expired
		// deadlines) to the context's own error, and report only the fully
		// elapsed seconds.
		err = ctxErr
		completed = int(time.Since(start) / time.Second)
		if completed > seconds {
			completed = seconds
		}
	}
	res.PerSecondBytes = make([]float64, completed)
	for j := 0; j < completed; j++ {
		res.PerSecondBytes[j] = float64(buckets[j].Load())
	}
	return res, err
}

// streamSeconds delivers each completed second's byte count to onSecond.
// It waits slightly past every second boundary so late atomic adds from
// the reader goroutine are included, and stops as soon as the slot is done
// or the context is cancelled — an interrupted slot never streams a second
// it did not complete.
const streamFlushSlack = 20 * time.Millisecond

func streamSeconds(ctx context.Context, done <-chan struct{}, start time.Time, buckets []atomic.Uint64, onSecond func(int, float64)) {
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for j := range buckets {
		boundary := start.Add(time.Duration(j+1)*time.Second + streamFlushSlack)
		timer.Reset(time.Until(boundary))
		select {
		case <-timer.C:
		case <-ctx.Done():
			return
		case <-done:
			return
		}
		onSecond(j, float64(buckets[j].Load()))
	}
}

// flowWindow bounds the un-echoed cells in flight on a connection with a
// single atomic counter shared by every sender shard, replacing the old
// per-cell token-channel operations. release wakes at most one blocked
// shard; further releases arrive batch-by-batch from the reader, so a
// briefly missed wakeup self-heals.
type flowWindow struct {
	capacity int64
	inflight atomic.Int64
	wake     chan struct{}
}

func newFlowWindow(capacity int64) *flowWindow {
	return &flowWindow{capacity: capacity, wake: make(chan struct{}, 1)}
}

// tryAcquire takes up to n in-flight slots without blocking and returns
// how many it took (possibly zero).
func (w *flowWindow) tryAcquire(n int64) int64 {
	for {
		cur := w.inflight.Load()
		free := w.capacity - cur
		if free <= 0 {
			return 0
		}
		take := min(free, n)
		if w.inflight.CompareAndSwap(cur, cur+take) {
			return take
		}
	}
}

// release returns n slots and signals one waiter.
func (w *flowWindow) release(n int64) {
	w.inflight.Add(-n)
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// checkSampled reports whether the cell (circID, seq) is spot-checked: a
// stateless uniform hash of the measurement seed and the cell's identity
// against a threshold derived from CheckProb. Deterministic sampling keeps
// the check decision out of the send path entirely — the old shared
// digest queue cost a mutex and an append per checked cell, which was the
// per-cell heap traffic the team benchmark showed.
func checkSampled(seed uint64, circID uint32, seq, threshold uint64) bool {
	x := seed ^ uint64(circID)*0x9E3779B97F4A7C15 ^ seq*0xBF58476D1CE4E5B9
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	x *= 0xC4CEB9FE1A85EC53
	x ^= x >> 33
	return x < threshold
}

// checkThreshold converts a check probability to the hash threshold used
// by checkSampled.
func checkThreshold(p float64) uint64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.MaxUint64
	}
	return uint64(p * float64(math.MaxUint64))
}

// echoVerifier is the verify-and-account core both echo readers share: it
// names the circuit an echoed data cell belongs to, spot-checks sampled
// cells against that circuit's forward keystream, and credits echoed bytes
// to the per-second buckets. Framing — where a cell's sequence and
// keystream offset come from, flow-window release, how the stream ends —
// stays with each plane's reader. The reader goroutine owns
// res.CellsChecked and res.Failed while it runs.
type echoVerifier struct {
	circs     []*cell.Keystream
	res       *MeasureResult
	buckets   []atomic.Uint64
	start     time.Time
	seed      uint64
	threshold uint64
}

// circuit returns the zero-based index of the circuit an echoed data cell
// names, rejecting any circuit this measurement never created.
func (v *echoVerifier) circuit(cb []byte) (int, error) {
	idx := int(cell.CircIDOf(cb)) - 1
	if idx < 0 || idx >= len(v.circs) {
		return 0, fmt.Errorf("wire: echo for unknown circuit %d", idx+1)
	}
	return idx, nil
}

// check spot-checks circuit idx's cell seq when sampling selects it: the
// echoed bytes p must equal the circuit's forward keystream at byte offset
// off, or the measurement is marked failed (§4.1).
func (v *echoVerifier) check(idx int, seq uint64, p []byte, off uint64) {
	if v.threshold == 0 || !checkSampled(v.seed, uint32(idx)+1, seq, v.threshold) {
		return
	}
	v.res.CellsChecked++
	if !v.circs[idx].VerifyAt(p, off) {
		v.res.Failed = true
	}
}

// credit adds n echoed data cells to the current second's bucket; echoes
// after the slot's last second are not counted.
func (v *echoVerifier) credit(n int) {
	idx := int(time.Since(v.start) / time.Second)
	if idx >= 0 && idx < len(v.buckets) {
		v.buckets[idx].Add(uint64(n) * cell.Size)
	}
}

// sendReq is one filled batch handed from a sender shard to the paced
// writer. free is the shard's buffer-recycling channel: the writer pushes
// the buffer back after the vectored write so the shard can refill it.
type sendReq struct {
	buf  *[]byte
	n    int
	free chan *[]byte
}

// shardBufs is how many batch buffers each sender shard cycles through
// the writer; enough that a shard keeps filling while its previous batches
// sit in a gathered writev.
const shardBufs = 4

// measureConn drives one multiplexed measurement connection.
func measureConn(ctx context.Context, dial Dialer, opts MeasureOptions, nCirc int, start time.Time, buckets []atomic.Uint64) (MeasureResult, error) {
	var res MeasureResult
	if err := ctx.Err(); err != nil {
		return res, err
	}
	conn, err := dial()
	if err != nil {
		return res, fmt.Errorf("dial: %w", err)
	}
	// Every teardown path — normal return, abort, and the cancellation
	// watcher below — funnels through one sync.Once: a pooled connection's
	// Close parks it for reuse, and racing the context watcher against the
	// deferred close could otherwise park the same connection twice and
	// hand it to two concurrent measurements later. The UDP data socket,
	// adopted after setup, rides the same teardown; the mutex closes the
	// adopt-vs-cancel race so a socket dialed while the watcher fires is
	// closed by whichever side runs second.
	var closeOnce sync.Once
	var closeMu sync.Mutex
	var connClosed bool
	var dataConn net.Conn
	closeConn := func() {
		closeOnce.Do(func() {
			closeMu.Lock()
			connClosed = true
			dc := dataConn
			closeMu.Unlock()
			conn.Close()
			if dc != nil {
				dc.Close()
			}
		})
	}
	defer closeConn()

	// Cancellation plumbing: closing the connection is what actually
	// unblocks the send/recv loops, so hook it straight to the context;
	// a context deadline additionally becomes a connection deadline so a
	// wedged peer cannot stall the slot past its budget even while the
	// context itself is still alive.
	stopWatch := context.AfterFunc(ctx, closeConn)
	defer stopWatch()
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}

	sess, _ := conn.(Session)
	if sess == nil || !sess.Authenticated() {
		if err := clientAuthenticate(conn, opts.Identity); err != nil {
			return res, err
		}
		if sess != nil {
			sess.MarkAuthenticated()
		}
	}

	tr := NewConnTransport(conn)
	readBuf := cell.GetSuper()
	defer cell.PutSuper(readBuf)
	cr := newCellReader(tr, *readBuf)

	circs, err := createCircuits(tr, cr, nCirc)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return res, ctxErr
		}
		return res, err
	}

	// Datagram data plane: bind over the control connection, then swap the
	// data path's transport and echo reader. Control traffic keeps using tr
	// and cr throughout.
	udp := opts.DialData != nil
	dataTr := tr
	var udpTr *udpTransport
	if udp {
		dc, err := setupUDP(tr, cr, opts.DialData)
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, err
		}
		closeMu.Lock()
		if connClosed {
			closeMu.Unlock()
			dc.Close()
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, net.ErrClosed
		}
		dataConn = dc
		closeMu.Unlock()
		if dl, ok := ctx.Deadline(); ok {
			_ = dc.SetDeadline(dl)
		}
		udpTr = newUDPTransport(dc)
		defer udpTr.release()
		dataTr = udpTr
	}

	deadline := start.Add(opts.Duration)
	windowCap := int64(inflightWindow) * int64(nCirc)
	if windowCap > maxWindowCells {
		windowCap = maxWindowCells
	}
	window := newFlowWindow(windowCap)

	// Reader: demultiplex the echo stream by circuit ID, verifying sampled
	// cells against each circuit's forward keystream. It owns
	// res.CellsChecked/Failed until readerExit closes.
	v := &echoVerifier{circs: circs, res: &res, buckets: buckets, start: start,
		seed: uint64(opts.Seed), threshold: checkThreshold(opts.CheckProb)}
	var stop atomic.Bool
	var sentCells, received atomic.Int64
	readerExit := make(chan struct{})
	var readerErr error
	go func() {
		defer close(readerExit)
		if udp {
			readerErr = runEchoReaderUDP(dataConn, v, window, &stop, &sentCells, &received)
		} else {
			readerErr = runEchoReader(cr, v, window)
		}
	}()

	// abort tears the connection down and waits for the reader so that no
	// goroutine still writes to res when we return it.
	abort := func(e error) (MeasureResult, error) {
		closeConn()
		<-readerExit
		if ctxErr := ctx.Err(); ctxErr != nil {
			e = ctxErr
		}
		return res, e
	}

	// Writer: the single paced exit point for measurement cells. It drains
	// the shard queue greedily, credits the pacer once per gathered
	// super-batch, and ships the whole gather with one vectored write.
	var pace pacer
	pace.rateBps = opts.RateBps
	sendQ := make(chan sendReq, 2*cell.SuperBatches)
	writerExit := make(chan struct{})
	var writerErr error
	go func() {
		defer close(writerExit)
		backing := make(net.Buffers, cell.SuperBatches)
		reqs := make([]sendReq, 0, cell.SuperBatches)
		// bufs lives outside the loop: WriteBatches takes its address, so a
		// per-iteration declaration would heap-allocate the slice header on
		// every vectored write (it was the last steady-state allocation on
		// the send path).
		var bufs net.Buffers
		// Gather no more bits per vectored write than one pacing quantum:
		// syscall batching pays off when the rate is high enough that many
		// batches fit in a quantum, while at low rates a full super-gather
		// would pace for hundreds of milliseconds per write and turn the
		// send stream into coarse bursts.
		quantum := pace.quantumBits()
		for req := range sendQ {
			reqs = append(reqs[:0], req)
			bits := req.n * cell.Size * 8
		gather:
			for len(reqs) < cell.SuperBatches && float64(bits) < quantum {
				select {
				case r, ok := <-sendQ:
					if !ok {
						break gather
					}
					reqs = append(reqs, r)
					bits += r.n * cell.Size * 8
				default:
					break gather
				}
			}
			if writerErr == nil {
				pace.wait(float64(bits))
				bufs = backing[:0]
				for _, r := range reqs {
					bufs = append(bufs, (*r.buf)[:r.n*cell.Size])
				}
				if err := dataTr.WriteBatches(&bufs); err != nil {
					writerErr = fmt.Errorf("send cells: %w", err)
					// Unblock the reader (and through readerExit, the
					// shards); keep draining sendQ so no shard wedges on a
					// full queue.
					closeConn()
				} else {
					for _, r := range reqs {
						sentCells.Add(int64(r.n))
					}
				}
			}
			for _, r := range reqs {
				r.free <- r.buf
			}
		}
		// The datagram transport stages cells until a full datagram; ship
		// the slot's ragged tail before the End exchange counts on it.
		if udpTr != nil && writerErr == nil {
			if err := udpTr.Flush(); err != nil {
				writerErr = err
				closeConn()
			}
		}
	}()

	// Sender shards: independent goroutines assembling batches for the
	// writer. Payloads are zeroed once per buffer — measurement cells
	// travel with all-zero payloads, so per-cell work is just the 5-byte
	// header naming the next circuit in round-robin order. The proof of
	// work stays with the target: decrypting a zero payload materializes
	// its forward keystream, which is exactly what the reader verifies.
	nShards := runtime.GOMAXPROCS(0)
	if nShards > nCirc {
		nShards = nCirc
	}
	var cellCtr atomic.Int64
	var shardWG sync.WaitGroup
	frees := make([]chan *[]byte, nShards)
	for s := 0; s < nShards; s++ {
		free := make(chan *[]byte, shardBufs)
		for i := 0; i < shardBufs; i++ {
			b := cell.GetBatch()
			clearPayloads(*b)
			free <- b
		}
		frees[s] = free
		shardWG.Add(1)
		go func(free chan *[]byte) {
			defer shardWG.Done()
			timer := time.NewTimer(time.Hour)
			if !timer.Stop() {
				<-timer.C
			}
			defer timer.Stop()
			for {
				now := time.Now()
				if !now.Before(deadline) || ctx.Err() != nil {
					return
				}
				n := window.tryAcquire(cell.BatchCells)
				if n == 0 {
					timer.Reset(deadline.Sub(now))
					select {
					case <-window.wake:
						if !timer.Stop() {
							<-timer.C
						}
					case <-timer.C:
					case <-ctx.Done():
						timer.Stop()
						return
					case <-readerExit:
						timer.Stop()
						return
					}
					continue
				}
				var buf *[]byte
				select {
				case buf = <-free:
				case <-ctx.Done():
					window.release(n)
					return
				case <-readerExit:
					window.release(n)
					return
				}
				out := *buf
				base := cellCtr.Add(n) - n
				for i := int64(0); i < n; i++ {
					id := uint32((base+i)%int64(nCirc)) + 1
					cell.PutHeader(out[i*cell.Size:], id, cell.MsmtData)
					if udp {
						// Strict round-robin makes the circuit's send
						// sequence derivable from the global counter; the
						// datagram plane carries it in the clear so the
						// echo survives loss and reordering (see udp.go).
						binary.BigEndian.PutUint64(out[i*cell.Size+5:], uint64((base+i)/int64(nCirc)))
					}
				}
				select {
				case sendQ <- sendReq{buf: buf, n: int(n), free: free}:
				case <-ctx.Done():
					free <- buf
					window.release(n)
					return
				case <-readerExit:
					free <- buf
					window.release(n)
					return
				}
			}
		}(free)
	}

	shardWG.Wait()
	close(sendQ)
	<-writerExit
	// All batch buffers are back in the shard free lists now: shards exit
	// holding nothing and the writer returns every queued buffer.
	for _, free := range frees {
		for i := 0; i < shardBufs; i++ {
			cell.PutBatch(<-free)
		}
	}
	if writerErr != nil {
		return abort(writerErr)
	}
	if err := ctx.Err(); err != nil {
		return abort(err)
	}

	if udp {
		// MsmtEnd travels on the control plane, which can outrun in-flight
		// datagrams on the data socket and tear circuits down under their
		// own tail; drain the echo stream before ending.
		waitUDPDrain(ctx, sentCells.Load(), &received)
		if err := ctx.Err(); err != nil {
			return abort(err)
		}
	}

	// End every circuit and wait for the echo stream to drain.
	endBuf := cell.GetSuper()
	out := *endBuf
	for i := 0; i < nCirc; i++ {
		cb := out[i*cell.Size:]
		cell.PutHeader(cb, uint32(i)+1, cell.MsmtEnd)
		clear(cell.PayloadOf(cb))
	}
	_, werr := tr.Write(out[:nCirc*cell.Size])
	cell.PutSuper(endBuf)
	if werr != nil {
		return abort(fmt.Errorf("send end: %w", werr))
	}
	if udp {
		// The End echoes come back on the control stream, which the UDP
		// echo reader never touches; collect them here, then release the
		// reader — immediately when every echo arrived, after a short
		// linger for stragglers when some are missing.
		for got := 0; got < nCirc; got++ {
			cb, err := cr.next()
			if err != nil {
				return abort(fmt.Errorf("read end echo: %w", err))
			}
			if cmd := cell.CommandOf(cb); cmd != cell.MsmtEnd {
				return abort(fmt.Errorf("wire: unexpected end echo %v", cmd))
			}
		}
		sent := sentCells.Load()
		stop.Store(true)
		lingerUntil := time.Now()
		if received.Load() < sent {
			lingerUntil = lingerUntil.Add(udpLingerGrace)
		}
		_ = dataConn.SetReadDeadline(lingerUntil)
		<-readerExit
		res.SentCells = sent
		if lost := sent - received.Load(); lost > 0 {
			res.LostCells = lost
		}
		if readerErr != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, readerErr
		}
		// The connection keeps its UDP binding for its whole life (the
		// bind is once per connection), so it cannot host a second
		// measurement: never mark it reusable.
		return res, nil
	}
	drainTimer := time.NewTimer(5 * time.Second)
	defer drainTimer.Stop()
	select {
	case <-readerExit:
		if readerErr != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, readerErr
		}
	case <-ctx.Done():
		return abort(ctx.Err())
	case <-drainTimer.C:
		return abort(errors.New("wire: timed out draining echo stream"))
	}
	if sess != nil {
		sess.MarkReusable()
	}
	return res, nil
}

// clearPayloads zeroes the payload bytes of every cell slot in a pooled
// batch buffer. Done once when a shard adopts the buffer: headers are
// rewritten per send, payloads stay zero for the buffer's whole life.
func clearPayloads(buf []byte) {
	for off := 0; off+cell.Size <= len(buf); off += cell.Size {
		clear(buf[off+5 : off+cell.Size])
	}
}

// createCircuits establishes nCirc measurement circuits in-band: one
// MsmtCreate cell per circuit carrying a fresh X25519 public key, shipped
// in batched writes and answered by the target's MsmtCreated rewrites. It
// returns each circuit's forward keystream — the random-access view the
// reader verifies sampled echoes against.
func createCircuits(tr Transport, cr *cellReader, nCirc int) ([]*cell.Keystream, error) {
	curve := ecdh.X25519()
	privs := make([]*ecdh.PrivateKey, nCirc)
	buf := cell.GetSuper()
	defer cell.PutSuper(buf)
	out := *buf
	for sent := 0; sent < nCirc; {
		n := min(cell.SuperCells, nCirc-sent)
		for i := 0; i < n; i++ {
			priv, err := curve.GenerateKey(rand.Reader)
			if err != nil {
				return nil, fmt.Errorf("circuit keygen: %w", err)
			}
			privs[sent+i] = priv
			cb := out[i*cell.Size:]
			cell.PutHeader(cb, uint32(sent+i)+1, cell.MsmtCreate)
			p := cell.PayloadOf(cb)
			copy(p[:32], priv.PublicKey().Bytes())
			clear(p[32:])
		}
		if _, err := tr.Write(out[:n*cell.Size]); err != nil {
			return nil, fmt.Errorf("send create: %w", err)
		}
		sent += n
	}
	ks := make([]*cell.Keystream, nCirc)
	for got := 0; got < nCirc; got++ {
		cb, err := cr.next()
		if err != nil {
			return nil, fmt.Errorf("read created: %w", err)
		}
		if cmd := cell.CommandOf(cb); cmd != cell.MsmtCreated {
			return nil, fmt.Errorf("wire: expected MSMT_CREATED, got %v", cmd)
		}
		idx := int(cell.CircIDOf(cb)) - 1
		if idx < 0 || idx >= nCirc || ks[idx] != nil {
			return nil, errors.New("wire: bad circuit id in MSMT_CREATED")
		}
		peer, err := curve.NewPublicKey(append(make([]byte, 0, 32), cell.PayloadOf(cb)[:32]...))
		if err != nil {
			return nil, fmt.Errorf("peer circuit key: %w", err)
		}
		shared, err := privs[idx].ECDH(peer)
		if err != nil {
			return nil, fmt.Errorf("circuit ecdh: %w", err)
		}
		secret := sha256.Sum256(shared)
		km := cell.DeriveKeys(secret[:])
		k, err := cell.NewKeystream(km.ForwardKey, km.ForwardIV)
		if err != nil {
			return nil, err
		}
		ks[idx] = k
	}
	return ks, nil
}

// runEchoReader consumes the echo stream: large vectored refills through
// the cellReader, per-cell demux by circuit ID, per-batch byte accounting
// and window release, and deterministic spot checks verified against each
// circuit's forward keystream. Cells travel with zero payloads and TCP
// delivers them in order, so an honest target's echo of circuit cell k is
// exactly the forward keystream at offset k·PayloadSize — anything else (a
// target skipping its decrypt work, §5) fails verification. It returns nil
// once every circuit's MsmtEnd echo arrived.
func runEchoReader(cr *cellReader, v *echoVerifier, window *flowWindow) error {
	recvSeq := make([]uint64, len(v.circs))
	remaining := len(v.circs)
	account := func(data int) {
		if data > 0 {
			v.credit(data)
			window.release(int64(data))
		}
	}
	for {
		batch, err := cr.nextBatch()
		if err != nil {
			return fmt.Errorf("read echo: %w", err)
		}
		data := 0
		for off := 0; off < len(batch); off += cell.Size {
			cb := batch[off : off+cell.Size]
			switch cmd := cell.CommandOf(cb); cmd {
			case cell.MsmtData:
				idx, err := v.circuit(cb)
				if err != nil {
					return err
				}
				seq := recvSeq[idx]
				recvSeq[idx]++
				data++
				v.check(idx, seq, cell.PayloadOf(cb), seq*cell.PayloadSize)
			case cell.MsmtEnd:
				remaining--
				if remaining == 0 {
					account(data)
					return nil
				}
			default:
				return fmt.Errorf("wire: unexpected echo cell %v", cmd)
			}
		}
		account(data)
	}
}

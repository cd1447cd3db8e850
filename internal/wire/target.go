package wire

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"flashflow/internal/cell"
)

// TargetConfig configures the target-relay side of the measurement
// protocol.
type TargetConfig struct {
	// RateBps limits the aggregate echo rate across all measurement
	// connections (the relay's capacity or configured limit). Zero means
	// unlimited.
	RateBps float64
	// Corrupt, if set, makes the target skip decryption and echo the
	// cell payload untouched — the forging misbehaviour that echo checks
	// must catch (§5): the echoed bytes are not the forward keystream a
	// real decrypt would have produced.
	Corrupt bool
}

// Target is the relay-side endpoint: it accepts authenticated measurement
// connections, each multiplexing many measurement circuits, and
// decrypt-echoes measurement cells subject to its rate limit.
type Target struct {
	cfg TargetConfig

	mu      sync.Mutex
	allowed map[string]bool
	conns   map[net.Conn]struct{}
	closed  bool
	pace    pacer
	counts  secondCounter

	// UDP data-plane registry (§7 transport): token → session, installed
	// when a connection's MsmtUdp cell arrives, and datagram source
	// address → session, installed when the measurer's hello datagram
	// proves it owns the token. See udp.go.
	udpMu     sync.Mutex
	udpTokens map[udpToken]*udpSession
	udpAddrs  map[netip.AddrPort]*udpSession

	wg sync.WaitGroup
}

// NewTarget creates a target with no authorized measurers.
func NewTarget(cfg TargetConfig) *Target {
	t := &Target{
		cfg:     cfg,
		allowed: make(map[string]bool),
		conns:   make(map[net.Conn]struct{}),
	}
	t.pace.rateBps = cfg.RateBps
	return t
}

// Authorize grants the given measurer public keys access for the current
// measurement (the BWAuth sends the target its team's keys, §4.1).
func (t *Target) Authorize(keys ...ed25519.PublicKey) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, k := range keys {
		t.allowed[string(k)] = true
	}
}

// Revoke removes all authorizations (end of the measurement slot).
func (t *Target) Revoke() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.allowed = make(map[string]bool)
}

// ForwardedBytesPerSecond returns the per-second forwarded measurement
// bytes observed since the first cell.
func (t *Target) ForwardedBytesPerSecond() []float64 {
	return t.counts.snapshot()
}

// Serve accepts and handles connections until the listener closes.
func (t *Target) Serve(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() { _ = t.HandleConn(conn) }()
	}
}

// Close force-closes every open connection — handlers may otherwise
// block forever reading a connection a measurement coordinator keeps
// parked in its pool — and returns only once every handler has returned:
// each HandleConn, whether Serve started it or the caller ran it
// directly, and each ServeUDP loop (listeners and packet conns must be
// closed by the caller first). The closed flag, the connection set and
// the handler wait group share one critical section with HandleConn's
// registration, so no handler can slip a connection in after Close has
// swept the set.
func (t *Target) Close() {
	t.mu.Lock()
	t.closed = true
	for c := range t.conns {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
}

// HandleConn runs the full target-side protocol on one connection:
// challenge-authenticate once, then serve the multiplexed cell stream —
// circuit creation, decrypt-and-echo, circuit teardown — until the
// measurer closes the connection. A connection held open by a measurement
// coordinator (internal/coord) carries every slot's circuits without
// re-dialing or re-authenticating.
func (t *Target) HandleConn(conn net.Conn) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil
	}
	t.conns[conn] = struct{}{}
	t.wg.Add(1)
	allowed := make(map[string]bool, len(t.allowed))
	for k := range t.allowed {
		allowed[k] = true
	}
	t.mu.Unlock()
	// Done runs last, after the serve loop returned its pooled arenas, so
	// Close's Wait covers the whole handler.
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		t.wg.Done()
	}()

	var frameScratch [frameScratchLen]byte
	pub, err := serverChallenge(conn, allowed, frameScratch[:])
	if err != nil {
		return fmt.Errorf("target auth: %w", err)
	}
	if err := t.serveMux(conn, pub); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return nil
		}
		return err
	}
	return nil
}

// authorized reports whether the key is in the current allowed set.
func (t *Target) authorized(pub ed25519.PublicKey) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.allowed[string(pub)]
}

// errRevoked reports a circuit request from a measurer whose
// authorization was withdrawn after the connection authenticated.
var errRevoked = errors.New("wire: measurer authorization revoked")

// maxConnCircuits bounds the live circuits one connection may hold, so an
// authorized-but-misbehaving measurer cannot grow the per-connection
// circuit table without limit.
const maxConnCircuits = 1024

// errTooManyCircuits reports a connection exceeding maxConnCircuits.
var errTooManyCircuits = errors.New("wire: too many circuits on one connection")

// circTable maps live circuit IDs to their demux entries (crypto state,
// span marks). The measurer allocates IDs densely from 1,
// so the fast path is an array index; sparse IDs fall back to a map.
// Lookup cost matters: the demux loop consults it once per data cell.
type circTable struct {
	dense  []*circEntry
	sparse map[uint32]*circEntry
	n      int
}

// denseCircuits is the ID range served by the array fast path.
const denseCircuits = 512

func (ct *circTable) get(id uint32) *circEntry {
	if id < denseCircuits {
		if int(id) < len(ct.dense) {
			return ct.dense[id]
		}
		return nil
	}
	return ct.sparse[id]
}

func (ct *circTable) set(id uint32, e *circEntry) {
	if id < denseCircuits {
		for int(id) >= len(ct.dense) {
			ct.dense = append(ct.dense, nil)
		}
		if ct.dense[id] == nil {
			ct.n++
		}
		ct.dense[id] = e
		return
	}
	if ct.sparse == nil {
		ct.sparse = make(map[uint32]*circEntry)
	}
	if ct.sparse[id] == nil {
		ct.n++
	}
	ct.sparse[id] = e
}

func (ct *circTable) del(id uint32) {
	if id < denseCircuits {
		if int(id) < len(ct.dense) && ct.dense[id] != nil {
			ct.dense[id] = nil
			ct.n--
		}
		return
	}
	if _, ok := ct.sparse[id]; ok {
		delete(ct.sparse, id)
		ct.n--
	}
}

func (ct *circTable) len() int { return ct.n }

// echoChunkBytes sizes the paced echo writes: at most one pacing quantum
// per write, so a slow target never sleeps hundreds of milliseconds on one
// super-batch and then bursts it — coarse echo bursts straddle the
// measurer's per-second accounting boundaries and distort the estimate.
// Unpaced targets echo each batch with a single write.
func (t *Target) echoChunkBytes(bufLen int) int {
	chunkBytes := bufLen
	if q := t.pace.quantumBits(); q/8 < float64(chunkBytes) {
		chunkBytes = int(q/8) / cell.Size * cell.Size
		if chunkBytes < cell.BatchBytes {
			chunkBytes = cell.BatchBytes
		}
	}
	return chunkBytes
}

// echoBatch writes one processed batch back to the measurer, paced in
// chunks of at most one quantum, and credits the per-second forwarded-byte
// counter. Control-only batches (circuit setup, teardown) are never paced:
// creation must answer promptly even on a slow target.
func (t *Target) echoBatch(tr Transport, batch []byte, dataCells, chunkBytes int) error {
	if dataCells == 0 || t.pace.rateBps <= 0 {
		if _, err := tr.Write(batch); err != nil {
			return fmt.Errorf("target echo: %w", err)
		}
	} else {
		for off := 0; off < len(batch); off += chunkBytes {
			end := min(off+chunkBytes, len(batch))
			t.pace.wait(float64((end - off) * 8))
			if _, err := tr.Write(batch[off:end]); err != nil {
				return fmt.Errorf("target echo: %w", err)
			}
		}
	}
	if dataCells > 0 {
		t.counts.add(float64(dataCells * cell.Size))
	}
	return nil
}

// serveMux is the relay's hot path: it serves every circuit of one
// connection, allocation-free in steady state. Each batch goes through
// three stages on this one goroutine — refill (one large Read for up to
// SuperCells cells into a pooled super arena), demux (route each cell by
// circuit ID, grouping data cells into per-circuit spans and handling
// control cells inline), and decrypt (one fat ApplySpans cipher call per
// span — §4.1's requirement that the relay do its real per-cell crypto
// work) — then the whole batch is echoed with paced writes. One loop owns
// every circuit's CryptoState, so each circuit's keystream advances in
// stream order with no hand-off.
//
// Control cells ride the same stream: MsmtCreate is answered by rewriting
// the cell in place into MsmtCreated (the X25519 answer key replaces the
// measurer's), so the echo write returns it with no separate send path;
// MsmtEnd drops the circuit and is echoed back as the drain marker; and
// MsmtUdp binds a datagram data plane (§7) served by ServeUDP. The
// measurer's authorization is re-checked on every MsmtCreate: Revoke must
// cut off a measurer even on a connection it already holds open (the
// pooled-connection case).
func (t *Target) serveMux(conn net.Conn, pub ed25519.PublicKey) error {
	tr := NewConnTransport(conn)
	ms := &muxState{t: t, pub: pub}
	defer t.unbindUDP(ms)
	buf := cell.GetSuper()
	defer cell.PutSuper(buf)
	cr := newCellReader(tr, *buf)
	var spans spanSet
	scratch := cell.NewSpanScratch()
	chunkBytes := t.echoChunkBytes(len(*buf))
	for {
		batch, err := cr.nextBatch()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return err
			}
			return fmt.Errorf("target read: %w", err)
		}
		dataCells, err := ms.demuxTCP(batch, &spans)
		if err != nil {
			return err
		}
		if !t.cfg.Corrupt {
			for i := 0; i < spans.n; i++ {
				sp := &spans.spans[i]
				sp.st.ApplySpans(batch, sp.offs, scratch)
			}
		}
		if err := t.echoBatch(tr, batch, dataCells, chunkBytes); err != nil {
			return err
		}
	}
}

// createCircuitCell answers an MSMT_CREATE cell: it runs the X25519
// exchange against the public key in the cell payload and rewrites the
// cell in place into the MSMT_CREATED answer (command byte and key), so
// the ordinary echo write delivers it. It returns the circuit's forward
// crypto state — the only direction the echo path uses.
func createCircuitCell(cb []byte) (*cell.CryptoState, error) {
	curve := ecdh.X25519()
	p := cell.PayloadOf(cb)
	peer, err := curve.NewPublicKey(append(make([]byte, 0, 32), p[:32]...))
	if err != nil {
		return nil, fmt.Errorf("target: peer circuit key: %w", err)
	}
	priv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("target: circuit keygen: %w", err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("target: circuit ecdh: %w", err)
	}
	secret := sha256.Sum256(shared)
	circ, err := cell.NewCircuit(cell.CircIDOf(cb), secret[:])
	if err != nil {
		return nil, err
	}
	cb[4] = byte(cell.MsmtCreated)
	copy(p[:32], priv.PublicKey().Bytes())
	return circ.Forward, nil
}

// secondCounter accumulates bytes into wall-clock second buckets.
type secondCounter struct {
	mu      sync.Mutex
	start   time.Time
	buckets []float64
}

// maxSecondBuckets bounds the per-second series: a long-lived target
// (continuous coordinator rounds) restarts the window instead of growing
// one bucket per second of uptime forever.
const maxSecondBuckets = 4096

func (s *secondCounter) add(bytes float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.start.IsZero() {
		s.start = time.Now()
	}
	idx := int(time.Since(s.start) / time.Second)
	if idx >= maxSecondBuckets {
		s.start = time.Now()
		s.buckets = s.buckets[:0]
		idx = 0
	}
	for len(s.buckets) <= idx {
		s.buckets = append(s.buckets, 0)
	}
	s.buckets[idx] += bytes
}

func (s *secondCounter) snapshot() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.buckets...)
}

package wire

import (
	"testing"

	"flashflow/internal/cell"
)

// FuzzTargetDemux feeds arbitrary cell streams from an authorized
// measurer through the target's two demux entry points: the TCP serve
// loop's demuxTCP plus span decrypt, and the datagram loop's
// serveUDPDatagram, both on one connection's muxState. Neither may panic,
// the connection may never hold more than maxConnCircuits circuits, and
// every echoed datagram cell must be either served data or Padding.
func FuzzTargetDemux(f *testing.F) {
	id, err := NewIdentity()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:len(data)/cell.Size*cell.Size]
		tgt := NewTarget(TargetConfig{})
		tgt.Authorize(id.Pub)
		ms := &muxState{t: tgt, pub: id.Pub}
		scratch := cell.NewSpanScratch()

		// TCP plane: the serve loop reads at most one super arena per
		// batch and drops the connection on the first demux error.
		stream := append([]byte(nil), data...)
		var spans spanSet
		for off := 0; off < len(stream); off += cell.SuperBytes {
			batch := stream[off:min(off+cell.SuperBytes, len(stream))]
			_, err := ms.demuxTCP(batch, &spans)
			if n := ms.circuits.len(); n > maxConnCircuits {
				t.Fatalf("%d live circuits, cap %d", n, maxConnCircuits)
			}
			if err != nil {
				break
			}
			for i := 0; i < spans.n; i++ {
				sp := &spans.spans[i]
				sp.st.ApplySpans(batch, sp.offs, scratch)
			}
		}

		// UDP plane: ServeUDP's framing check admits cell-aligned datagrams
		// of at most udpDatagramBytes.
		dgrams := append([]byte(nil), data...)
		var udpSpans spanSet
		var seqs [udpDatagramCells]uint64
		for off := 0; off < len(dgrams); off += udpDatagramBytes {
			dg := dgrams[off:min(off+udpDatagramBytes, len(dgrams))]
			served := tgt.serveUDPDatagram(ms, dg, &udpSpans, scratch, &seqs)
			echoed := 0
			for c := 0; c < len(dg); c += cell.Size {
				switch cmd := cell.CommandOf(dg[c:]); cmd {
				case cell.MsmtData:
					echoed++
				case cell.Padding:
				default:
					t.Fatalf("datagram echo carries %v, want data or padding", cmd)
				}
			}
			if served != echoed {
				t.Fatalf("served %d data cells, echo carries %d", served, echoed)
			}
		}
	})
}

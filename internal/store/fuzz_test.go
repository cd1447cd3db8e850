package store

import (
	"bytes"
	"encoding/binary"
	"runtime/metrics"
	"testing"

	"flashflow/internal/core"
)

// A restarted coordinator or merge node decodes WAL records and snapshots
// from disk; a CRC frame catches torn and flipped bytes, but the codec
// below it must still fail closed on anything the encoder never wrote.
// Seed corpora live in testdata/fuzz/: encoded valid records and states,
// their truncations, and counts far larger than the payload.

// decodeAllocSlack is the allocation a decode may make beyond
// decodeAllocPerByte times its input: map headers and the fixed State.
const (
	decodeAllocSlack   = 1 << 20
	decodeAllocPerByte = 64
)

var heapAllocs = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocatedBytes reads the cumulative heap allocation counter. It is
// exact for large objects — the ones a trusted count would size — and
// span-granular for small ones, which the slack absorbs.
func allocatedBytes() uint64 {
	metrics.Read(heapAllocs)
	return heapAllocs[0].Value.Uint64()
}

// checkDecodeAllocs fails when decoding n input bytes allocated more than
// the input itself could justify.
func checkDecodeAllocs(t *testing.T, before uint64, n int) {
	t.Helper()
	if got, limit := allocatedBytes()-before, uint64(decodeAllocSlack+decodeAllocPerByte*n); got > limit {
		t.Fatalf("decoding %d bytes allocated %d bytes, limit %d", n, got, limit)
	}
}

// FuzzDecodeRecord feeds arbitrary bytes to the WAL record decoder. It
// must never panic or allocate beyond its input's size, and an accepted
// record must re-encode to the input. The one exception is the anomaly
// counts' compatibility rule: counts written with another field count
// decode, and come back in this version's field count. That re-encoding
// must then be a fixed point, which pins that nothing this version knows
// was lost.
func FuzzDecodeRecord(f *testing.F) {
	fields := core.AnomalyCounts{}.AppendBinary(nil)[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocatedBytes()
		rec, err := decodeRecord(data)
		checkDecodeAllocs(t, before, len(data))
		if err != nil {
			return
		}
		re := appendRecord(nil, rec)
		if bytes.Equal(re, data) {
			return
		}
		// The counts' field-count byte follows kind, round, relay and bps.
		head := len(appendFloat(appendString(binary.AppendUvarint([]byte{0}, uint64(rec.Round)), rec.Relay), rec.Bps))
		if data[head] == fields {
			t.Fatalf("accepted record %x re-encodes to %x", data, re)
		}
		checkFixedPoint(t, re, func(p []byte) ([]byte, error) {
			rec, err := decodeRecord(p)
			return appendRecord(nil, rec), err
		})
	})
}

// FuzzDecodeState feeds arbitrary bytes to the snapshot decoder under the
// same rules. Besides anomaly counts, a format-version-1 snapshot (no
// submissions section) normalizes: it re-encodes with an empty one.
func FuzzDecodeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		before := allocatedBytes()
		st, err := decodeState(data)
		checkDecodeAllocs(t, before, len(data))
		if err != nil {
			return
		}
		re := appendState(nil, st)
		if bytes.Equal(re, data) {
			return
		}
		if len(st.Anomalies) == 0 && len(st.Submissions) > 0 {
			t.Fatalf("accepted snapshot %x re-encodes to %x", data, re)
		}
		checkFixedPoint(t, re, func(p []byte) ([]byte, error) {
			st, err := decodeState(p)
			if err != nil {
				return nil, err
			}
			return appendState(nil, st), nil
		})
	})
}

// checkFixedPoint fails unless the normalized encoding re decodes and
// re-encodes to itself. The encodings are injective on values (floats
// travel as their bits), so this also shows the normalization kept every
// decoded value.
func checkFixedPoint(t *testing.T, re []byte, roundTrip func([]byte) ([]byte, error)) {
	t.Helper()
	again, err := roundTrip(re)
	if err != nil {
		t.Fatalf("normalized encoding %x does not decode: %v", re, err)
	}
	if !bytes.Equal(again, re) {
		t.Fatalf("encoding is not a fixed point: %x, then %x", re, again)
	}
}

package dirauth

import (
	"bytes"
	"testing"
)

// The merge node decodes submissions and parses their v3bw bodies from
// other processes' bytes. Seed corpora live in testdata/fuzz/.

// FuzzDecodeSubmission feeds arbitrary bytes to the submission decoder:
// it must never panic, and because it consumes its input exactly, every
// blob it accepts must re-encode to the same bytes.
func FuzzDecodeSubmission(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sub, err := DecodeSubmission(data)
		if err != nil {
			return
		}
		if re := sub.Encode(); !bytes.Equal(re, data) {
			t.Fatalf("decoded submission re-encodes to %q, input was %q", re, data)
		}
	})
}

// FuzzParseV3BW feeds arbitrary text to the v3bw parser: it must never
// panic, and a parsed file must render to a fixed point — rendering,
// parsing that rendering, and rendering again gives the same bytes.
func FuzzParseV3BW(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseV3BW(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, _, err := parsed.Render()
		if err != nil {
			t.Fatalf("render of parsed file: %v", err)
		}
		reparsed, err := ParseV3BW(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("rendering does not parse: %v\n%s", err, first)
		}
		second, _, err := reparsed.Render()
		if err != nil {
			t.Fatalf("render of reparsed file: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("render is not a fixed point:\n%s\n---\n%s", first, second)
		}
	})
}

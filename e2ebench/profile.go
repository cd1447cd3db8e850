package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) far enough to charge each sample to a layer. Only the
// fields needed for that are decoded: samples (location IDs and values),
// locations (their line → function IDs), functions (name string index)
// and the string table.

// cpuLayers are the layers the traced run charges CPU to, besides "gc"
// and "other".
var cpuLayers = []string{"cell", "wire", "core", "coord", "store", "dirauth", "rpc", "obs"}

const internalPrefix = "flashflow/internal/"

// gcFrames mark the runtime's background collector goroutines.
var gcFrames = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// checkFrames mark the benchmark's own client and checks. Their calls into
// the program (parsing and merging bodies to verify them, reading /v3bw)
// are not the deployment's work, so their samples go to "other".
var checkFrames = []string{"main.verifyRound", "main.fetch", "main.(*openLoop)"}

// attributeCPU decodes a gzipped CPU profile and sums CPU nanoseconds per
// layer: a sample goes to the innermost flashflow/internal/<module> frame
// on its stack; modules outside cpuLayers, stacks with no such frame and
// stacks under the benchmark's own checks go to "other", except
// background GC work, which goes to "gc".
func attributeCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	out := make(map[string]int64)
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1] // cpu/nanoseconds is the last value
		out[p.layerOf(s.locs, known)] += ns
	}
	return out, nil
}

type sample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location → function IDs, innermost first
	funcName map[uint64]int64    // function → string index
	strs     []string
}

func (p *profile) name(fn uint64) string {
	i := p.funcName[fn]
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

// layerOf walks a stack from the leaf and names the layer of its innermost
// flashflow/internal frame.
func (p *profile) layerOf(locs []uint64, known map[string]bool) string {
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			if hasAnyPrefix(p.name(fn), checkFrames) {
				return "other"
			}
		}
	}
	gc := false
	for _, loc := range locs {
		for _, fn := range p.locFuncs[loc] {
			name := p.name(fn)
			if rest, ok := strings.CutPrefix(name, internalPrefix); ok {
				mod := rest
				if i := strings.IndexAny(mod, "./"); i >= 0 {
					mod = mod[:i]
				}
				if known[mod] {
					return mod
				}
				return "other"
			}
			gc = gc || hasAnyPrefix(name, gcFrames)
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

var errProfile = errors.New("profile: malformed protobuf")

// decodeProfile parses the profile.proto message fields this file needs.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := eachField(b, func(field int, wt int, v uint64, msg []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := eachField(msg, func(f, wt int, v uint64, m []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, m)
				case 2:
					for _, u := range appendVarints(nil, wt, v, m) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f, wt int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(m, func(f, wt int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(msg, func(f, wt int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(msg))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field's values, whether encoded
// packed (wire type 2) or one per field (wire type 0).
func appendVarints(dst []uint64, wt int, v uint64, msg []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(msg) > 0 {
		u, n := binary.Uvarint(msg)
		if n <= 0 {
			return dst
		}
		dst = append(dst, u)
		msg = msg[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: varints
// arrive in v, length-delimited fields in msg. Fixed-width fields are
// skipped.
func eachField(b []byte, fn func(field, wt int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		field, wt := int(key>>3), int(key&7)
		var v uint64
		var msg []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			msg = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
			continue
		default:
			return errProfile
		}
		if err := fn(field, wt, v, msg); err != nil {
			return err
		}
	}
	return nil
}

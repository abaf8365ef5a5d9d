package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// attribute splits a runtime/pprof CPU profile into per-layer shares.
// Each sample goes to the innermost frame owned by the repository: a
// socksdirect/internal/<layer> package, the root socksdirect package
// ("sd"), or this benchmark ("bench", package main). Runtime time spent
// under such a frame (channel handoffs under exec, malloc under core, ...)
// therefore counts toward that layer. Samples with no owned frame go to
// runtime.gc_share when they come from a background GC worker and to
// runtime.other_share otherwise. The returned shares sum to 1.
func attribute(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	known := make(map[string]bool, len(shareLayers))
	for _, l := range shareLayers {
		known[l] = true
	}
	weight := make(map[string]float64)
	var total float64
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		weight[p.bucket(s.locs, known)] += v
		total += v
	}
	out := make(map[string]float64, len(shareLayers)+2)
	for _, l := range shareLayers {
		out[l+".cpu_share"] = 0
	}
	out["runtime.gc_share"], out["runtime.other_share"] = 0, 0
	if total == 0 {
		return out, 0, errors.New("profile holds no samples")
	}
	for b, v := range weight {
		out[b] = v / total
	}
	return out, len(p.samples), nil
}

// bucket names the share a sample's stack (leaf first) belongs to.
func (p *profile) bucket(locs []uint64, known map[string]bool) string {
	gc := false
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			name := p.funcNames[fn]
			if l := layerOf(name); l != "" {
				if !known[l] {
					l = "misc"
				}
				return l + ".cpu_share"
			}
			switch name {
			case "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge":
				gc = true
			}
		}
	}
	if gc {
		return "runtime.gc_share"
	}
	return "runtime.other_share"
}

// layerOf maps a function name to the repository layer that owns it, or
// "" for the runtime and the standard library.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "bench"
	case strings.HasPrefix(fn, "socksdirect."):
		return "sd"
	case strings.HasPrefix(fn, "socksdirect/internal/"):
		rest := fn[len("socksdirect/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "socksdirect/"):
		return "misc"
	}
	return ""
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames map[uint64]string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the protobuf wire format of profile.proto: fields
// sample (2), location (4), function (5) and string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcNames: make(map[uint64]string)}
	var strs []string
	funcStr := make(map[uint64]uint64)
	err := eachField(b, func(f int, v uint64, sub []byte) error {
		switch f {
		case 2:
			var s sample
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, sub)
				case 2:
					for _, x := range appendPacked(nil, v, sub) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(f int, v uint64, sub []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(sub, func(f int, v uint64, _ []byte) error {
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
		case 5:
			var id, name uint64
			err := eachField(sub, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcStr[id] = name
			return err
		case 6:
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return nil, errors.New("function name outside the string table")
		}
		p.funcNames[id] = strs[si]
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v carries
// varint and fixed-width values, sub the bytes of length-delimited ones.
func eachField(b []byte, fn func(field int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return errors.New("unsupported protobuf wire type")
		}
		if err := fn(int(key>>3), v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either one value or
// its packed encoding.
func appendPacked(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

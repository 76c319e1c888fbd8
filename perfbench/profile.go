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

// The runtime writes CPU and heap profiles in pprof's gzip-compressed
// protobuf format, and the standard library has no public reader for it.
// decodeProfile is the minimal protobuf walk this benchmark needs: for
// each sample, its values and its stack as function names, leaf first.

// profileSample is one pprof sample: values in sample-type order, stack
// from the leaf (innermost frame, inlined callees included) outward.
type profileSample struct {
	values []int64
	stack  []string
}

// profile is a decoded pprof profile.
type profile struct {
	sampleTypes []string // "<type>/<unit>", e.g. "alloc_space/bytes"
	samples     []profileSample
}

// valueIndex returns the position of the sample type named typ, or -1.
func (p *profile) valueIndex(typ string) int {
	for i, t := range p.sampleTypes {
		if strings.HasPrefix(t, typ+"/") {
			return i
		}
	}
	return -1
}

type rawSample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses a gzip-compressed pprof profile.
func decodeProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: gunzip: %w", err)
	}

	var (
		strs     []string
		types    [][2]int64 // (type, unit) string indices
		samples  []rawSample
		locLines = map[uint64][]uint64{} // location id → function ids, innermost first
		funcName = map[uint64]int64{}    // function id → name string index
	)
	err = walkFields(raw, func(field int, wt int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			var t [2]int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 || f == 2 {
					t[f-1] = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			types = append(types, t)
		case 2: // sample
			var s rawSample
			if err := walkFields(b, func(f, wt int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, wt, v, b)
				case 2:
					var vs []uint64
					if err := appendPacked(&vs, wt, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := walkFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	p := &profile{}
	for _, t := range types {
		p.sampleTypes = append(p.sampleTypes, str(t[0])+"/"+str(t[1]))
	}
	for _, s := range samples {
		ps := profileSample{values: s.values}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				ps.stack = append(ps.stack, str(funcName[fn]))
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

var errProtobuf = errors.New("profile: malformed protobuf")

// walkFields calls fn for every top-level field of a protobuf message:
// v carries varint values, b the bytes of length-delimited ones.
func walkFields(msg []byte, fn func(field, wireType int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProtobuf
		}
		msg = msg[n:]
		field, wt := int(tag>>3), int(tag&7)
		var v uint64
		var b []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProtobuf
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errProtobuf
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProtobuf
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errProtobuf
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return errProtobuf
		}
		if err := fn(field, wt, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field, in either its packed
// (length-delimited) or its unpacked (one varint per field) encoding.
func appendPacked(dst *[]uint64, wireType int, v uint64, b []byte) error {
	if wireType == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errProtobuf
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

// repoPrefix is the import-path prefix of the program's modules.
const repoPrefix = "repro/internal/"

// moduleOf attributes a stack (leaf first) to the innermost frame that
// belongs to a repro/internal/<module> package: work done in the standard
// library or the runtime on a module's behalf — encoding/gob under wire,
// mallocgc under whoever allocated — counts for that module. A stack
// with no such frame belongs to "runtime".
func moduleOf(stack []string) string {
	for _, fn := range stack {
		if !strings.HasPrefix(fn, repoPrefix) {
			continue
		}
		mod := fn[len(repoPrefix):]
		if i := strings.IndexAny(mod, "./"); i >= 0 {
			mod = mod[:i]
		}
		return mod
	}
	return "runtime"
}

// byModule sums value column idx of every sample per attributed module.
func byModule(p *profile, idx int) map[string]int64 {
	out := map[string]int64{}
	if idx < 0 {
		return out
	}
	for _, s := range p.samples {
		if idx < len(s.values) {
			out[moduleOf(s.stack)] += s.values[idx]
		}
	}
	return out
}

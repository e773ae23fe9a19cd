// Package prof is the host-cost performance-observability layer: a
// dependency-free decoder for pprof protos, flat and cumulative
// function rankings over them, and the hetcore.prof/v1 hotspots report
// schema. Per-stage host cost reads off the cumulative ranking: the
// simulator's pipeline phases are functions (Core.fillLookahead,
// dispatch, issue, commit), so their cumulative CPU time comes from the
// same profile as the flat view and the two views agree by
// construction.
package prof

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"sort"
)

// This file is a minimal decoder for the pprof profile.proto wire
// format (github.com/google/pprof/proto/profile.proto), hand-rolled over
// the protobuf wire encoding so the repository stays dependency-free. It
// decodes exactly what the hotspots report and the profile-validity
// tests need: sample types, samples (location stacks, values, labels),
// the location->line->function graph and the string table.

// ValueType is one sample dimension ("cpu"/"nanoseconds",
// "alloc_space"/"bytes", ...).
type ValueType struct {
	Type string
	Unit string
}

// ProfileSample is one stack sample: the leaf location comes first.
type ProfileSample struct {
	LocationIDs []uint64
	Values      []int64
	// Labels are the sample's string labels (pprof.Do goroutine labels
	// land here: workload=..., device=..., config=...).
	Labels map[string]string
}

// Profile is a decoded pprof proto.
type Profile struct {
	SampleTypes []ValueType
	Samples     []ProfileSample

	// frames maps location id -> function names of its inlined
	// frames, leaf-most first ("loc#<id>" for a name the string table
	// lacks).
	frames map[uint64][]string
}

// ParseProfile decodes a pprof proto, gunzipping first when the payload
// carries the gzip magic (runtime/pprof always compresses).
func ParseProfile(data []byte) (*Profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if closeErr := zr.Close(); err == nil {
			err = closeErr
		}
		if err != nil {
			return nil, fmt.Errorf("prof: gunzip profile: %w", err)
		}
		data = raw
	}
	return parseProfileProto(data)
}

// ValueIndex returns the index of the sample-value dimension with the
// given type name ("cpu", "alloc_space", ...), or -1.
func (p *Profile) ValueIndex(typ string) int {
	for i, st := range p.SampleTypes {
		if st.Type == typ {
			return i
		}
	}
	return -1
}

// FuncCost is one function's cost in a top-N report. Flat is the
// value of samples whose leaf is the function; Cum, filled only by
// TopCumulative, is the value of samples with the function anywhere on
// the stack. Share is the ranked value's fraction of the profile total.
type FuncCost struct {
	Function string  `json:"function"`
	Flat     int64   `json:"flat"`
	Cum      int64   `json:"cum,omitempty"`
	Share    float64 `json:"share"`
}

// funcs returns the function names of a location's frames, leaf-most
// first; a location with no frames is named "loc#<id>".
func (p *Profile) funcs(loc uint64) []string {
	if names := p.frames[loc]; len(names) > 0 {
		return names
	}
	return []string{fmt.Sprintf("loc#%d", loc)}
}

// TopFunctions returns the n largest flat costs by leaf function for one
// value dimension, descending (ties break by name for determinism).
// Flat cost follows the pprof convention: a sample's whole value is
// charged to its leaf location's function.
func (p *Profile) TopFunctions(valueIdx, n int) []FuncCost {
	if valueIdx < 0 {
		return nil
	}
	flat := map[string]int64{}
	var total int64
	for _, s := range p.Samples {
		if valueIdx >= len(s.Values) || len(s.LocationIDs) == 0 {
			continue
		}
		v := s.Values[valueIdx]
		if v == 0 {
			continue
		}
		flat[p.funcs(s.LocationIDs[0])[0]] += v
		total += v
	}
	out := make([]FuncCost, 0, len(flat))
	for name, v := range flat {
		out = append(out, FuncCost{Function: name, Flat: v, Share: share(v, total)})
	}
	return rank(out, n, func(f FuncCost) int64 { return f.Flat })
}

// TopCumulative returns the n largest cumulative costs for one value
// dimension, descending (ties break by name). A sample's value counts
// once for every distinct function on its stack, inlined frames
// included, so recursion does not count a function twice and a
// function's Cum is never below its Flat.
func (p *Profile) TopCumulative(valueIdx, n int) []FuncCost {
	if valueIdx < 0 {
		return nil
	}
	flat := map[string]int64{}
	cum := map[string]int64{}
	var total int64
	seen := map[string]bool{}
	for _, s := range p.Samples {
		if valueIdx >= len(s.Values) || len(s.LocationIDs) == 0 {
			continue
		}
		v := s.Values[valueIdx]
		if v == 0 {
			continue
		}
		total += v
		flat[p.funcs(s.LocationIDs[0])[0]] += v
		clear(seen)
		for _, loc := range s.LocationIDs {
			for _, name := range p.funcs(loc) {
				if !seen[name] {
					seen[name] = true
					cum[name] += v
				}
			}
		}
	}
	out := make([]FuncCost, 0, len(cum))
	for name, v := range cum {
		out = append(out, FuncCost{Function: name, Flat: flat[name], Cum: v, Share: share(v, total)})
	}
	return rank(out, n, func(f FuncCost) int64 { return f.Cum })
}

func share(v, total int64) float64 {
	if total <= 0 {
		return 0
	}
	return float64(v) / float64(total)
}

// rank sorts costs descending by key, ties by name, and keeps the first
// n (all when n <= 0).
func rank(out []FuncCost, n int, key func(FuncCost) int64) []FuncCost {
	sort.Slice(out, func(i, j int) bool {
		if ki, kj := key(out[i]), key(out[j]); ki != kj {
			return ki > kj
		}
		return out[i].Function < out[j].Function
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// --- protobuf wire decoding ---

// wireReader walks one protobuf message body.
type wireReader struct {
	buf []byte
	pos int
}

func (r *wireReader) done() bool { return r.pos >= len(r.buf) }

// varint decodes one base-128 varint.
func (r *wireReader) varint() (uint64, error) {
	var v uint64
	var shift uint
	for {
		if r.pos >= len(r.buf) {
			return 0, fmt.Errorf("prof: truncated varint")
		}
		b := r.buf[r.pos]
		r.pos++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, nil
		}
		shift += 7
		if shift >= 64 {
			return 0, fmt.Errorf("prof: varint overflow")
		}
	}
}

// field reads the next field tag and returns (number, wireType).
func (r *wireReader) field() (int, int, error) {
	tag, err := r.varint()
	if err != nil {
		return 0, 0, err
	}
	return int(tag >> 3), int(tag & 7), nil
}

// advance consumes n bytes, bounded by the bytes remaining so that no
// length, however large, can move the cursor out of the buffer.
func (r *wireReader) advance(n uint64) error {
	if n > uint64(len(r.buf)-r.pos) {
		return fmt.Errorf("prof: truncated field")
	}
	r.pos += int(n)
	return nil
}

// skip consumes one field of the given wire type.
func (r *wireReader) skip(wt int) error {
	switch wt {
	case 0: // varint
		_, err := r.varint()
		return err
	case 1: // fixed64
		return r.advance(8)
	case 2: // length-delimited
		n, err := r.varint()
		if err != nil {
			return err
		}
		return r.advance(n)
	case 5: // fixed32
		return r.advance(4)
	default:
		return fmt.Errorf("prof: unsupported wire type %d", wt)
	}
}

// bytesField reads one length-delimited payload.
func (r *wireReader) bytesField() ([]byte, error) {
	n, err := r.varint()
	if err != nil {
		return nil, err
	}
	start := r.pos
	if err := r.advance(n); err != nil {
		return nil, err
	}
	return r.buf[start:r.pos], nil
}

// uints reads a repeated uint64 field: either one packed payload (wire
// type 2) or a single varint occurrence (wire type 0).
func (r *wireReader) uints(wt int, into []uint64) ([]uint64, error) {
	if wt == 0 {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		return append(into, v), nil
	}
	body, err := r.bytesField()
	if err != nil {
		return nil, err
	}
	pr := wireReader{buf: body}
	for !pr.done() {
		v, err := pr.varint()
		if err != nil {
			return nil, err
		}
		into = append(into, v)
	}
	return into, nil
}

// profile.proto field numbers used below.
const (
	profSampleType  = 1
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	vtType = 1
	vtUnit = 2

	sampleLocationID = 1
	sampleValue      = 2
	sampleLabel      = 3

	labelKey = 1
	labelStr = 2

	locID   = 1
	locLine = 4

	lineFunctionID = 1

	funcID   = 1
	funcName = 2
)

func parseProfileProto(data []byte) (*Profile, error) {
	p := &Profile{frames: map[uint64][]string{}}
	var strtab []string
	type rawVT struct{ typ, unit uint64 }
	type rawLabel struct{ key, str uint64 }
	type rawSample struct {
		locs   []uint64
		vals   []uint64
		labels []rawLabel
	}
	var vts []rawVT
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, leaf first
	funcNames := map[uint64]uint64{}  // function id -> name string index

	r := wireReader{buf: data}
	for !r.done() {
		num, wt, err := r.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case profStringTable:
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			strtab = append(strtab, string(b))
		case profSampleType:
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			var vt rawVT
			mr := wireReader{buf: b}
			for !mr.done() {
				n, w, err := mr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case vtType:
					vt.typ, err = mr.varint()
				case vtUnit:
					vt.unit, err = mr.varint()
				default:
					err = mr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			vts = append(vts, vt)
		case profSample:
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			var s rawSample
			mr := wireReader{buf: b}
			for !mr.done() {
				n, w, err := mr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case sampleLocationID:
					s.locs, err = mr.uints(w, s.locs)
				case sampleValue:
					s.vals, err = mr.uints(w, s.vals)
				case sampleLabel:
					var lb []byte
					lb, err = mr.bytesField()
					if err == nil {
						var l rawLabel
						lr := wireReader{buf: lb}
						for !lr.done() {
							ln, lw, lerr := lr.field()
							if lerr != nil {
								return nil, lerr
							}
							switch ln {
							case labelKey:
								l.key, lerr = lr.varint()
							case labelStr:
								l.str, lerr = lr.varint()
							default:
								lerr = lr.skip(lw)
							}
							if lerr != nil {
								return nil, lerr
							}
						}
						s.labels = append(s.labels, l)
					}
				default:
					err = mr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case profLocation:
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			mr := wireReader{buf: b}
			for !mr.done() {
				n, w, err := mr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case locID:
					id, err = mr.varint()
				case locLine:
					var lb []byte
					lb, err = mr.bytesField()
					if err == nil {
						// Lines run from the leaf-most inlined frame
						// out to the physical caller.
						lr := wireReader{buf: lb}
						for !lr.done() {
							ln, lw, lerr := lr.field()
							if lerr != nil {
								return nil, lerr
							}
							if ln == lineFunctionID {
								var fn uint64
								fn, lerr = lr.varint()
								fns = append(fns, fn)
							} else {
								lerr = lr.skip(lw)
							}
							if lerr != nil {
								return nil, lerr
							}
						}
					}
				default:
					err = mr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(fns) > 0 {
				locFuncs[id] = fns
			}
		case profFunction:
			b, err := r.bytesField()
			if err != nil {
				return nil, err
			}
			var id, name uint64
			mr := wireReader{buf: b}
			for !mr.done() {
				n, w, err := mr.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case funcID:
					id, err = mr.varint()
				case funcName:
					name, err = mr.varint()
				default:
					err = mr.skip(w)
				}
				if err != nil {
					return nil, err
				}
			}
			funcNames[id] = name
		default:
			if err := r.skip(wt); err != nil {
				return nil, err
			}
		}
	}

	str := func(i uint64) string {
		if i < uint64(len(strtab)) {
			return strtab[i]
		}
		return ""
	}
	for _, vt := range vts {
		p.SampleTypes = append(p.SampleTypes, ValueType{Type: str(vt.typ), Unit: str(vt.unit)})
	}
	for loc, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, fn := range fns {
			if names[i] = str(funcNames[fn]); names[i] == "" {
				names[i] = fmt.Sprintf("loc#%d", loc)
			}
		}
		p.frames[loc] = names
	}
	for _, rs := range samples {
		s := ProfileSample{LocationIDs: rs.locs}
		for _, v := range rs.vals {
			s.Values = append(s.Values, int64(v))
		}
		if len(rs.labels) > 0 {
			s.Labels = make(map[string]string, len(rs.labels))
			for _, l := range rs.labels {
				if l.str != 0 {
					s.Labels[str(l.key)] = str(l.str)
				}
			}
		}
		p.Samples = append(p.Samples, s)
	}
	if len(p.SampleTypes) == 0 {
		return nil, fmt.Errorf("prof: no sample types: not a pprof profile")
	}
	return p, nil
}

package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"hetcore/internal/hetsim"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// The result codec: engine jobs return `any`, but the disk cache and the
// wire protocol need typed round-trips. Every result type is registered
// under a stable name; encoding emits (name, payload) pairs and decoding
// rebuilds the exact concrete type.
//
// The payload is a compact binary walk of the type's exported fields in
// declaration order — the fields encoding/json would serialise, with no
// field names on the wire:
//
//	bool                one byte, 0 or 1
//	int kinds           zig-zag varint
//	uint kinds          varint
//	float32, float64    raw IEEE-754 bits, little-endian (4 or 8 bytes)
//	string              varint length, then the bytes
//	slice, map          varint 0 for nil, else varint len+1, then the
//	                    elements (a map's entries as key, value pairs
//	                    in ascending key order)
//	array               the elements, no length
//	struct              the fields, no framing
//
// Floats travel as their bits, so NaN, ±Inf and −0 survive and a decoded
// result is reflect.DeepEqual to the computed one — the determinism
// contract survives serialization. Map keys are sorted, so equal values
// always encode to identical bytes. RegisterResult compiles each type's
// field plan once and panics on any kind the format cannot round-trip,
// so an unsupported field fails at init instead of being dropped.

// valueCodec encodes and decodes one Go type.
type valueCodec struct {
	enc func(b []byte, v reflect.Value) []byte
	// dec overwrites v (settable) entirely, nil markers included, so a
	// reused temporary never leaks an earlier value.
	dec func(d *decoder, v reflect.Value) error
	// min is the fewest bytes one value encodes to. Slice lengths are
	// checked against it before anything is allocated.
	min int
}

// resultCodec is one registered result type.
type resultCodec struct {
	name string
	t    reflect.Type
	c    *valueCodec
	// size is the length of the last payload encoded, the capacity the
	// next encoding starts with.
	size atomic.Int64
}

// encode appends v's payload to b.
func (rc *resultCodec) encode(b []byte, v any) []byte {
	if b == nil {
		b = make([]byte, 0, rc.size.Load())
	}
	n := len(b)
	b = rc.c.enc(b, reflect.ValueOf(v))
	rc.size.Store(int64(len(b) - n))
	return b
}

var (
	codecMu    sync.RWMutex
	codecTypes = map[string]*resultCodec{}
	codecNames = map[reflect.Type]*resultCodec{}
)

// RegisterResult makes a result type serializable under the given
// stable name. Call from init; registering the same name for two types
// panics, as does a type with a field kind the codec cannot round-trip
// (pointer, interface, func, chan, complex, a map key other than an
// integer or string, a slice of elements that encode to no bytes, or a
// recursive type).
func RegisterResult(name string, prototype any) {
	t := reflect.TypeOf(prototype)
	c, err := compile(t, map[reflect.Type]bool{})
	if err != nil {
		panic(fmt.Sprintf("dist: result %q: %v", name, err))
	}
	codecMu.Lock()
	defer codecMu.Unlock()
	if prev, ok := codecTypes[name]; ok && prev.t != t {
		panic(fmt.Sprintf("dist: result name %q registered for both %v and %v", name, prev.t, t))
	}
	rc := &resultCodec{name: name, t: t, c: c}
	codecTypes[name] = rc
	codecNames[t] = rc
}

func init() {
	RegisterResult("hetsim.CPUResult", hetsim.CPUResult{})
	RegisterResult("hetsim.GPUResult", hetsim.GPUResult{})
	RegisterResult("hetsim.HeteroCMPResult", hetsim.HeteroCMPResult{})
	RegisterResult("soc.Result", soc.Result{})
	RegisterResult("trace.Summary", trace.Summary{})
	RegisterResult("traffic.Result", traffic.Result{})
}

// RegisteredResults returns every registered (name, prototype) pair,
// sorted by name. Tests iterate it to prove each type survives an
// encode/decode round trip.
func RegisteredResults() map[string]any {
	codecMu.RLock()
	defer codecMu.RUnlock()
	out := make(map[string]any, len(codecTypes))
	for name, rc := range codecTypes {
		out[name] = reflect.New(rc.t).Elem().Interface()
	}
	return out
}

// EncodeResult serializes a registered result value. Unregistered types
// return an error — callers treat those results as uncacheable and
// unshippable rather than failing the job.
func EncodeResult(v any) (typeName string, data []byte, err error) {
	rc, err := codecFor(v)
	if err != nil {
		return "", nil, err
	}
	return rc.name, rc.encode(nil, v), nil
}

// codecFor returns the registered codec of v's dynamic type.
func codecFor(v any) (*resultCodec, error) {
	codecMu.RLock()
	rc, ok := codecNames[reflect.TypeOf(v)]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dist: unregistered result type %T", v)
	}
	return rc, nil
}

// DecodeResult rebuilds a result value from its registered type name
// and payload. Malformed payloads — truncated, overlong, out-of-range or
// followed by trailing bytes — are errors, never panics.
func DecodeResult(typeName string, data []byte) (any, error) {
	codecMu.RLock()
	rc, ok := codecTypes[typeName]
	codecMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dist: unknown result type %q", typeName)
	}
	p := reflect.New(rc.t).Elem()
	d := decoder{b: data}
	err := rc.c.dec(&d, p)
	if err == nil && len(d.b) != 0 {
		err = errTrailing
	}
	if err != nil {
		return nil, fmt.Errorf("dist: decoding %s: %w", typeName, err)
	}
	return p.Interface(), nil
}

var (
	errTruncated = errors.New("truncated payload")
	errOverflow  = errors.New("integer overflows its field")
	errBadBool   = errors.New("bool byte is neither 0 nor 1")
	errTrailing  = errors.New("trailing bytes after the payload")
)

// decoder consumes a payload front to back.
type decoder struct{ b []byte }

func (d *decoder) uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		if n == 0 {
			return 0, errTruncated
		}
		return 0, errOverflow
	}
	d.b = d.b[n:]
	return x, nil
}

func (d *decoder) varint() (int64, error) {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		if n == 0 {
			return 0, errTruncated
		}
		return 0, errOverflow
	}
	d.b = d.b[n:]
	return x, nil
}

func (d *decoder) take(n int) ([]byte, error) {
	if n > len(d.b) {
		return nil, errTruncated
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p, nil
}

// prefixed reads a varint length and that many bytes.
func (d *decoder) prefixed() ([]byte, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.b)) {
		return nil, errTruncated
	}
	return d.take(int(n))
}

// appendPrefixed appends s as read by prefixed.
func appendPrefixed(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// nilOrCount reads a slice or map header: nil, or the length of
// elements that encode to at least min bytes each, checked against the
// bytes remaining.
func (d *decoder) nilOrCount(min int) (n int, isNil bool, err error) {
	x, err := d.uvarint()
	if err != nil || x == 0 {
		return 0, true, err
	}
	if x-1 > uint64(len(d.b)/min) {
		return 0, false, errTruncated
	}
	return int(x - 1), false, nil
}

// compile builds the codec of t. building holds the types on the
// current path, to reject recursive types.
func compile(t reflect.Type, building map[reflect.Type]bool) (*valueCodec, error) {
	switch t.Kind() {
	case reflect.Bool:
		return &valueCodec{min: 1,
			enc: func(b []byte, v reflect.Value) []byte {
				if v.Bool() {
					return append(b, 1)
				}
				return append(b, 0)
			},
			dec: func(d *decoder, v reflect.Value) error {
				p, err := d.take(1)
				if err != nil {
					return err
				}
				if p[0] > 1 {
					return errBadBool
				}
				v.SetBool(p[0] == 1)
				return nil
			},
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return &valueCodec{min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendVarint(b, v.Int()) },
			dec: func(d *decoder, v reflect.Value) error {
				x, err := d.varint()
				if err != nil {
					return err
				}
				if v.OverflowInt(x) {
					return errOverflow
				}
				v.SetInt(x)
				return nil
			},
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return &valueCodec{min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return binary.AppendUvarint(b, v.Uint()) },
			dec: func(d *decoder, v reflect.Value) error {
				x, err := d.uvarint()
				if err != nil {
					return err
				}
				if v.OverflowUint(x) {
					return errOverflow
				}
				v.SetUint(x)
				return nil
			},
		}, nil
	case reflect.Float32:
		return &valueCodec{min: 4,
			enc: func(b []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v.Float())))
			},
			dec: func(d *decoder, v reflect.Value) error {
				p, err := d.take(4)
				if err != nil {
					return err
				}
				v.SetFloat(float64(math.Float32frombits(binary.LittleEndian.Uint32(p))))
				return nil
			},
		}, nil
	case reflect.Float64:
		return &valueCodec{min: 8,
			enc: func(b []byte, v reflect.Value) []byte {
				return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float()))
			},
			dec: func(d *decoder, v reflect.Value) error {
				p, err := d.take(8)
				if err != nil {
					return err
				}
				v.SetFloat(math.Float64frombits(binary.LittleEndian.Uint64(p)))
				return nil
			},
		}, nil
	case reflect.String:
		return &valueCodec{min: 1,
			enc: func(b []byte, v reflect.Value) []byte { return appendPrefixed(b, v.String()) },
			dec: func(d *decoder, v reflect.Value) error {
				p, err := d.prefixed()
				if err != nil {
					return err
				}
				v.SetString(string(p))
				return nil
			},
		}, nil
	case reflect.Struct:
		return compileStruct(t, building)
	case reflect.Array:
		return compileArray(t, building)
	case reflect.Slice:
		return compileSlice(t, building)
	case reflect.Map:
		return compileMap(t, building)
	}
	return nil, fmt.Errorf("type %v: kind %v cannot round-trip", t, t.Kind())
}

func compileStruct(t reflect.Type, building map[reflect.Type]bool) (*valueCodec, error) {
	if building[t] {
		return nil, fmt.Errorf("recursive type %v", t)
	}
	building[t] = true
	defer delete(building, t)
	type field struct {
		index int
		c     *valueCodec
	}
	var fields []field
	min := 0
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		// encoding/json's field set: exported fields, plus the promoted
		// fields of an embedded struct, minus json:"-".
		if !f.IsExported() && !(f.Anonymous && f.Type.Kind() == reflect.Struct) {
			continue
		}
		if f.Tag.Get("json") == "-" {
			continue
		}
		c, err := compile(f.Type, building)
		if err != nil {
			return nil, fmt.Errorf("%v.%s: %w", t, f.Name, err)
		}
		fields = append(fields, field{i, c})
		min += c.min
	}
	return &valueCodec{min: min,
		enc: func(b []byte, v reflect.Value) []byte {
			for _, f := range fields {
				b = f.c.enc(b, v.Field(f.index))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			for _, f := range fields {
				if err := f.c.dec(d, v.Field(f.index)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

func compileArray(t reflect.Type, building map[reflect.Type]bool) (*valueCodec, error) {
	ec, err := compile(t.Elem(), building)
	if err != nil {
		return nil, err
	}
	n := t.Len()
	return &valueCodec{min: n * ec.min,
		enc: func(b []byte, v reflect.Value) []byte {
			for i := 0; i < n; i++ {
				b = ec.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			for i := 0; i < n; i++ {
				if err := ec.dec(d, v.Index(i)); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

func compileSlice(t reflect.Type, building map[reflect.Type]bool) (*valueCodec, error) {
	ec, err := compile(t.Elem(), building)
	if err != nil {
		return nil, err
	}
	if ec.min == 0 {
		// A length would be all that bounds such a slice: a few bytes
		// could demand an arbitrarily large allocation.
		return nil, fmt.Errorf("type %v: elements encode to no bytes", t)
	}
	return &valueCodec{min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			n := v.Len()
			b = binary.AppendUvarint(b, uint64(n)+1)
			for i := 0; i < n; i++ {
				b = ec.enc(b, v.Index(i))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			n, isNil, err := d.nilOrCount(ec.min)
			if err != nil {
				return err
			}
			if isNil {
				v.SetZero()
				return nil
			}
			s := reflect.MakeSlice(t, n, n)
			for i := 0; i < n; i++ {
				if err := ec.dec(d, s.Index(i)); err != nil {
					return err
				}
			}
			v.Set(s)
			return nil
		},
	}, nil
}

func compileMap(t reflect.Type, building map[reflect.Type]bool) (*valueCodec, error) {
	var less func(a, b reflect.Value) bool
	switch t.Key().Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	case reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	default:
		return nil, fmt.Errorf("type %v: map key kind %v has no encoding order", t, t.Key().Kind())
	}
	kc, err := compile(t.Key(), building)
	if err != nil {
		return nil, err
	}
	ec, err := compile(t.Elem(), building)
	if err != nil {
		return nil, err
	}
	entryMin := kc.min + ec.min
	return &valueCodec{min: 1,
		enc: func(b []byte, v reflect.Value) []byte {
			if v.IsNil() {
				return append(b, 0)
			}
			keys := v.MapKeys()
			sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
			b = binary.AppendUvarint(b, uint64(len(keys))+1)
			for _, k := range keys {
				b = kc.enc(b, k)
				b = ec.enc(b, v.MapIndex(k))
			}
			return b
		},
		dec: func(d *decoder, v reflect.Value) error {
			n, isNil, err := d.nilOrCount(entryMin)
			if err != nil {
				return err
			}
			if isNil {
				v.SetZero()
				return nil
			}
			m := reflect.MakeMapWithSize(t, n)
			k := reflect.New(t.Key()).Elem()
			e := reflect.New(t.Elem()).Elem()
			for i := 0; i < n; i++ {
				if err := kc.dec(d, k); err != nil {
					return err
				}
				if err := ec.dec(d, e); err != nil {
					return err
				}
				m.SetMapIndex(k, e)
			}
			v.Set(m)
			return nil
		},
	}, nil
}

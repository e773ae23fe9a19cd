package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"hetcore/internal/hetsim"
)

// TestRegisterResultRejects: every kind the binary format cannot
// round-trip panics at registration instead of being dropped silently.
func TestRegisterResultRejects(t *testing.T) {
	type node struct{ Kids []node }
	for _, tc := range []struct {
		name  string
		proto any
	}{
		{"pointer", struct{ P *int }{}},
		{"interface", struct{ I any }{}},
		{"func", struct{ F func() }{}},
		{"chan", struct{ C chan int }{}},
		{"complex", struct{ C complex128 }{}},
		{"float map key", struct{ M map[float64]int }{}},
		{"struct map key", struct{ M map[struct{ A int }]int }{}},
		{"zero-size slice element", struct{ S []struct{} }{}},
		{"slice of unexported-only structs", struct{ S []struct{ x int } }{}},
		{"recursive type", node{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("RegisterResult accepted %T", tc.proto)
				}
			}()
			RegisterResult("test.rejected", tc.proto)
		})
	}
	if _, ok := RegisteredResults()["test.rejected"]; ok {
		t.Error("a rejected type was registered")
	}
}

// TestCodecSpecialFloats: NaN, ±Inf and −0 travel as their bits, so a
// result holding them is cacheable and decodes bit-exactly.
func TestCodecSpecialFloats(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.Float64frombits(0x7ff8_0000_dead_beef)}
	for _, f := range specials {
		in := hetsim.CPUResult{TimeSec: f, IPC: f}
		in.Energy.DRAM = f
		name, data, err := EncodeResult(in)
		if err != nil {
			t.Fatalf("encoding %v: %v", f, err)
		}
		v, err := DecodeResult(name, data)
		if err != nil {
			t.Fatalf("decoding %v: %v", f, err)
		}
		out := v.(hetsim.CPUResult)
		for _, got := range []float64{out.TimeSec, out.IPC, out.Energy.DRAM} {
			if math.Float64bits(got) != math.Float64bits(f) {
				t.Errorf("%016x decoded as %016x", math.Float64bits(f), math.Float64bits(got))
			}
		}
	}
}

// codecProbe exercises every field kind the format supports.
type codecProbe struct {
	B  bool
	I  int8
	U  uint16
	F  float32
	S  string
	A  [2]int
	L  []string
	M  map[string]int
	MU map[uint64]struct{}
	x  int // unexported: not encoded
	embedded
}

type embedded struct{ E int }

func probeCodec(t *testing.T) *valueCodec {
	t.Helper()
	c, err := compile(reflect.TypeOf(codecProbe{}), map[reflect.Type]bool{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func probeDecode(c *valueCodec, data []byte) (codecProbe, error) {
	var p codecProbe
	d := decoder{b: data}
	err := c.dec(&d, reflect.ValueOf(&p).Elem())
	if err == nil && len(d.b) != 0 {
		err = errTrailing
	}
	return p, err
}

// TestCodecKinds: every supported kind round-trips, nil and empty
// slices and maps stay distinct, unexported fields are skipped, and map
// order never changes the bytes.
func TestCodecKinds(t *testing.T) {
	c := probeCodec(t)
	m := map[string]int{}
	mu := map[uint64]struct{}{}
	for i := 0; i < 50; i++ {
		m[strings.Repeat("k", i)] = -i
		mu[uint64(i)*0x9e3779b97f4a7c15] = struct{}{}
	}
	for _, in := range []codecProbe{
		{},
		{B: true, I: -128, U: 65535, F: -1.5, S: "héllo", A: [2]int{math.MinInt64, math.MaxInt64},
			L: []string{"a", ""}, M: m, MU: mu, embedded: embedded{E: 7}},
		{L: []string{}, M: map[string]int{}, MU: map[uint64]struct{}{}},
	} {
		data := c.enc(nil, reflect.ValueOf(in))
		for i := 0; i < 5; i++ {
			if again := c.enc(nil, reflect.ValueOf(in)); !bytes.Equal(again, data) {
				t.Fatalf("encoding is not deterministic:\n %x\n %x", data, again)
			}
		}
		out, err := probeDecode(c, data)
		if err != nil {
			t.Fatalf("decoding %+v: %v", in, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Errorf("round trip lost data:\n sent %#v\n got  %#v", in, out)
		}
	}
	withX := codecProbe{x: 9}
	if out, err := probeDecode(c, c.enc(nil, reflect.ValueOf(withX))); err != nil || out.x != 0 {
		t.Errorf("unexported field crossed the codec: %+v, %v", out, err)
	}
}

// TestCodecMalformed: malformed payloads are errors, never panics.
func TestCodecMalformed(t *testing.T) {
	c := probeCodec(t)
	valid := c.enc(nil, reflect.ValueOf(codecProbe{B: true, S: "abc", L: []string{"x"}, M: map[string]int{"k": 1}}))
	// valid[0] is B; valid[1] is I (zig-zag varint); valid[2] is U.
	huge := binary.AppendUvarint(nil, math.MaxUint64)
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, errTruncated},
		{"bool byte 2", append([]byte{2}, valid[1:]...), errBadBool},
		{"int8 overflow", append(append([]byte{1}, binary.AppendVarint(nil, 128)...), valid[2:]...), errOverflow},
		{"uint16 overflow", append(append([]byte{1, 0}, binary.AppendUvarint(nil, 1<<16)...), valid[3:]...), errOverflow},
		{"varint past 64 bits", []byte{1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, errOverflow},
		{"string longer than the payload", append([]byte{1, 0, 0, 0, 0, 0, 0}, huge...), errTruncated},
		{"trailing byte", append(valid[:len(valid):len(valid)], 0), errTrailing},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := probeDecode(c, tc.data); !errors.Is(err, tc.want) {
				t.Errorf("got %v, want %v", err, tc.want)
			}
		})
	}
	// Every truncation of a valid payload fails cleanly.
	for n := 0; n < len(valid); n++ {
		if _, err := probeDecode(c, valid[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded", n, len(valid))
		}
	}
	// A slice length no remaining bytes could hold is refused before
	// anything is allocated.
	hugeSlice := append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, huge...)
	if _, err := probeDecode(c, hugeSlice); !errors.Is(err, errTruncated) {
		t.Errorf("huge slice length: got %v, want %v", err, errTruncated)
	}
}

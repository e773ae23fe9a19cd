package trace

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReader: decoding arbitrary bytes as a binary trace never panics and
// always terminates. Every record Next accepts consumes at least 14 input
// bytes, so a reader over n bytes must be drained or failed after n/14+1
// calls; Next must also keep returning valid ops.
func FuzzReader(f *testing.F) {
	p, _ := CPUWorkload("canneal")
	var buf bytes.Buffer
	if err := WriteTrace(&buf, MustGenerator(p, 1, 0), 64); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated mid-record
	f.Add(valid[:16])           // header only, count says 64
	f.Add(valid[:10])           // truncated count
	bad := append([]byte("HETTRC02"), valid[8:]...)
	f.Add(bad) // bad magic
	huge := append([]byte{}, valid[:8]...)
	huge = binary.LittleEndian.AppendUint64(huge, ^uint64(0))
	f.Add(append(huge, valid[16:]...)) // count far beyond the data
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for calls := 0; r.Remaining() > 0; calls++ {
			if calls > len(data)/14+1 {
				t.Fatalf("reader over %d bytes still has %d records after %d calls",
					len(data), r.Remaining(), calls)
			}
			if in := r.Next(); in.Op < 0 || in.Op >= numOps {
				t.Fatalf("Next returned invalid op %d", in.Op)
			}
		}
	})
}

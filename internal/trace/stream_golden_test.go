package trace

import (
	"bufio"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenStreamLen is how many instructions of each stream the golden pins.
const goldenStreamLen = 300_000

// streamHash is the FNV-64a hash of the first n instructions of a
// generator, each encoded as fixed-width little-endian fields.
func streamHash(g *Generator, n int) uint64 {
	h := fnv.New64a()
	var rec [26]byte
	for i := 0; i < n; i++ {
		in := g.Next()
		rec[0] = byte(in.Op)
		rec[1] = 0
		if in.Taken {
			rec[1] |= flagTaken
		}
		if in.Shared {
			rec[1] |= flagShared
		}
		binary.LittleEndian.PutUint32(rec[2:], uint32(in.Dep1))
		binary.LittleEndian.PutUint32(rec[6:], uint32(in.Dep2))
		binary.LittleEndian.PutUint64(rec[10:], in.PC)
		binary.LittleEndian.PutUint64(rec[18:], in.Addr)
		h.Write(rec[:])
	}
	return h.Sum64()
}

// TestStreamGolden pins every drawn value of trace synthesis: the hash of
// the first 300k instructions of each CPU profile for seeds {1, 2, 99} and
// cores {0, 3, 6}. Regenerate (only for an intended model change) with
// 'go test ./internal/trace -run StreamGolden -update'.
func TestStreamGolden(t *testing.T) {
	seeds, cores := []uint64{1, 2, 99}, []int{0, 3, 6}
	profs := CPUWorkloads()
	per := len(seeds) * len(cores)
	lines := make([]string, len(profs)*per)
	t.Run("hash", func(t *testing.T) {
		for i, p := range profs {
			t.Run(p.Name, func(t *testing.T) {
				t.Parallel()
				for j, seed := range seeds {
					for k, core := range cores {
						h := streamHash(MustGenerator(p, seed, core), goldenStreamLen)
						lines[i*per+j*len(cores)+k] = fmt.Sprintf("%s %d %d %016x", p.Name, seed, core, h)
					}
				}
			})
		}
	})
	path := filepath.Join("testdata", "streams.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(lines) {
		t.Fatalf("golden has %d streams, got %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("stream drifted: got %q, want %q", lines[i], want[i])
		}
	}
}

var benchInst Inst

// BenchmarkGeneratorNext measures synthesis cost per instruction across
// every CPU profile.
func BenchmarkGeneratorNext(b *testing.B) {
	var gens []*Generator
	for _, p := range CPUWorkloads() {
		gens = append(gens, MustGenerator(p, 1, 0))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchInst = gens[i%len(gens)].Next()
	}
}

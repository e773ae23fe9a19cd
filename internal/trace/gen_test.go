package trace

import (
	"math"
	"testing"
	"testing/quick"
)

// take materialises g's next n instructions.
func take(g *Generator, n int) []Inst {
	out := make([]Inst, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestAllProfilesValid(t *testing.T) {
	ws := CPUWorkloads()
	if len(ws) != 14 {
		t.Fatalf("have %d CPU workloads, want 14 (10 SPLASH-2 + 4 PARSEC)", len(ws))
	}
	seen := make(map[string]bool)
	for _, p := range ws {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if seen[p.Name] {
			t.Errorf("duplicate workload %q", p.Name)
		}
		seen[p.Name] = true
	}
	for _, name := range []string{"barnes", "fft", "lu", "radix", "blackscholes", "canneal", "streamcluster", "fluidanimate"} {
		if !seen[name] {
			t.Errorf("missing paper workload %q", name)
		}
	}
}

func TestCPUWorkloadLookup(t *testing.T) {
	p, err := CPUWorkload("lu")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "lu" {
		t.Errorf("got %q", p.Name)
	}
	if _, err := CPUWorkload("doom"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	p, _ := CPUWorkload("barnes")
	a := MustGenerator(p, 1, 0)
	b := MustGenerator(p, 1, 0)
	for i := 0; i < 20000; i++ {
		x, y := a.Next(), b.Next()
		if x != y {
			t.Fatalf("diverged at %d: %+v vs %+v", i, x, y)
		}
	}
	if a.Generated() != 20000 {
		t.Errorf("Generated() = %d", a.Generated())
	}
}

func TestGeneratorSeedAndCoreIndependence(t *testing.T) {
	p, _ := CPUWorkload("fft")
	base := take(MustGenerator(p, 1, 0), 1000)
	otherSeed := take(MustGenerator(p, 2, 0), 1000)
	otherCore := take(MustGenerator(p, 1, 1), 1000)
	sameSeed, sameCore := 0, 0
	for i := range base {
		if base[i] == otherSeed[i] {
			sameSeed++
		}
		if base[i] == otherCore[i] {
			sameCore++
		}
	}
	if sameSeed > 100 || sameCore > 100 {
		t.Errorf("streams too similar: seed %d/1000, core %d/1000", sameSeed, sameCore)
	}
}

func TestGeneratorRejectsBadInput(t *testing.T) {
	p, _ := CPUWorkload("lu")
	if _, err := NewGenerator(p, 1, -1); err == nil {
		t.Error("negative core accepted")
	}
	for name, mutate := range map[string]func(*Profile){
		"zero MeanDep": func(p *Profile) { p.MeanDep = 0 },
		// Below one 64-byte block a taken branch has no target block.
		"32-byte code":        func(p *Profile) { p.CodeBytes = 32 },
		"code beyond stride":  func(p *Profile) { p.CodeBytes = coreStride + 64 },
		"huge loop period":    func(p *Profile) { p.LoopPeriod = maxLoopPeriod + 1 },
		"single-trip loop":    func(p *Profile) { p.LoopPeriod = 1 },
		"negative mix weight": func(p *Profile) { p.Mix[IntALU] = -1 },
	} {
		bad := p
		mutate(&bad)
		if _, err := NewGenerator(bad, 1, 0); err == nil {
			t.Errorf("%s: invalid profile accepted", name)
		}
	}
}

// The realised instruction mix must match the profile's weights.
func TestMixConformance(t *testing.T) {
	for _, p := range CPUWorkloads() {
		g := MustGenerator(p, 7, 0)
		var counts [numOps]int
		const n = 200000
		for i := 0; i < n; i++ {
			counts[g.Next().Op]++
		}
		var sum float64
		for _, w := range p.Mix {
			sum += w
		}
		for op, w := range p.Mix {
			want := w / sum
			got := float64(counts[op]) / n
			if math.Abs(got-want) > 0.01 {
				t.Errorf("%s: %v fraction = %.4f, want %.4f", p.Name, Op(op), got, want)
			}
		}
	}
}

// Memory addresses must fall in the declared regions with the declared
// frequencies.
func TestAddressRegionConformance(t *testing.T) {
	p, _ := CPUWorkload("canneal") // has all four regions populated
	g := MustGenerator(p, 3, 2)
	var hot, mid, large, stream, shared, mem int
	const n = 300000
	for i := 0; i < n; i++ {
		in := g.Next()
		if !in.Op.IsMem() {
			continue
		}
		mem++
		switch {
		case in.Shared:
			shared++
			if in.Addr < sharedBase || in.Addr >= sharedBase+sharedBytes {
				t.Fatalf("shared access outside shared region: %#x", in.Addr)
			}
		case in.Addr >= streamBase:
			stream++
		case in.Addr >= largeBase:
			large++
		case in.Addr >= midBase:
			mid++
		case in.Addr >= hotBase:
			hot++
		default:
			t.Fatalf("address %#x below data regions", in.Addr)
		}
	}
	frac := func(c int) float64 { return float64(c) / float64(mem) }
	// Shared accesses are carved out of the hot fraction.
	if math.Abs(frac(hot)+frac(shared)-p.HotFrac) > 0.04 {
		t.Errorf("hot+shared fraction %.3f, want %.3f (±0.04)", frac(hot)+frac(shared), p.HotFrac)
	}
	if math.Abs(frac(mid)-p.MidFrac) > 0.04 {
		t.Errorf("mid fraction %.3f, want %.3f (±0.04)", frac(mid), p.MidFrac)
	}
	if math.Abs(frac(large)-p.LargeFrac) > 0.04 {
		t.Errorf("large fraction %.3f, want %.3f (±0.04)", frac(large), p.LargeFrac)
	}
	wantStream := 1 - p.HotFrac - p.MidFrac - p.LargeFrac
	if math.Abs(frac(stream)-wantStream) > 0.04 {
		t.Errorf("stream fraction %.3f, want %.3f (±0.04)", frac(stream), wantStream)
	}
}

func TestStreamingIsSequential(t *testing.T) {
	// The streaming cursor advances 8 bytes per streaming access. Short
	// term line repeats (RepeatFrac) may revisit old stream lines, so
	// assert on new maxima only: each must extend the previous by 8.
	p, _ := CPUWorkload("streamcluster")
	g := MustGenerator(p, 5, 0)
	var maxLine uint64
	advances := 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if !in.Op.IsMem() || in.Shared || in.Addr < streamBase || in.Addr >= sharedBase {
			continue
		}
		line := in.Addr / 64
		if line > maxLine {
			if maxLine != 0 && line != maxLine+1 {
				t.Fatalf("stream line jumped: %#x after %#x", line, maxLine)
			}
			maxLine = line
			advances++
		}
	}
	if advances < 50 {
		t.Fatalf("only %d streaming line advances observed", advances)
	}
}

func TestSharedAddressesIdenticalAcrossCores(t *testing.T) {
	p, _ := CPUWorkload("canneal")
	collect := func(core int) map[uint64]bool {
		g := MustGenerator(p, 9, core)
		set := make(map[uint64]bool)
		for i := 0; i < 200000; i++ {
			in := g.Next()
			if in.Shared {
				set[in.Addr] = true
			}
		}
		return set
	}
	s0, s1 := collect(0), collect(1)
	if len(s0) == 0 || len(s1) == 0 {
		t.Fatal("no shared accesses generated")
	}
	overlap := 0
	for a := range s0 {
		if s1[a] {
			overlap++
		}
	}
	if overlap == 0 {
		t.Error("cores never touch the same shared lines")
	}
	// Private regions must not overlap across cores.
	gp0 := MustGenerator(p, 9, 0)
	gp1 := MustGenerator(p, 9, 1)
	priv0 := make(map[uint64]bool)
	for i := 0; i < 50000; i++ {
		if in := gp0.Next(); in.Op.IsMem() && !in.Shared {
			priv0[in.Addr] = true
		}
	}
	for i := 0; i < 50000; i++ {
		if in := gp1.Next(); in.Op.IsMem() && !in.Shared && priv0[in.Addr] {
			t.Fatalf("private address %#x shared across cores", in.Addr)
		}
	}
}

func TestDependencyDistanceMean(t *testing.T) {
	// Loads always draw geometric dependencies (no load-dep bias applies
	// to them), so their Dep1 mean should match the profile.
	p, _ := CPUWorkload("lu")
	g := MustGenerator(p, 21, 0)
	var sum float64
	var n int
	for i := 0; i < 300000; i++ {
		in := g.Next()
		if in.Dep1 < 0 {
			t.Fatalf("Dep1 = %d < 0", in.Dep1)
		}
		if in.Op != Load {
			continue
		}
		sum += float64(in.Dep1)
		n++
	}
	got := sum / float64(n)
	if math.Abs(got-p.MeanDep)/p.MeanDep > 0.05 {
		t.Errorf("mean load dep distance %.2f, want %.2f", got, p.MeanDep)
	}
}

func TestLoadDepBias(t *testing.T) {
	// With bias, many non-load instructions should point exactly at the
	// most recent load.
	p, _ := CPUWorkload("canneal") // bias 0.5
	g := MustGenerator(p, 9, 0)
	sinceLoad := 0
	hits, eligible := 0, 0
	for i := 0; i < 200000; i++ {
		in := g.Next()
		if in.Op != Load && sinceLoad > 0 && sinceLoad < 64 {
			eligible++
			if in.Dep1 == sinceLoad {
				hits++
			}
		}
		if in.Op == Load {
			sinceLoad = 0
		}
		sinceLoad++
	}
	rate := float64(hits) / float64(eligible)
	// Bias 0.5 plus chance geometric coincidences.
	if rate < 0.45 || rate > 0.75 {
		t.Errorf("load-use rate %.3f, want ≈0.5+", rate)
	}
}

func TestBranchOutcomesVaryBySite(t *testing.T) {
	p, _ := CPUWorkload("raytrace")
	g := MustGenerator(p, 2, 0)
	taken, total := 0, 0
	for i := 0; i < 200000; i++ {
		in := g.Next()
		if in.Op == Branch {
			total++
			if in.Taken {
				taken++
			}
		}
	}
	if total == 0 {
		t.Fatal("no branches generated")
	}
	rate := float64(taken) / float64(total)
	// A mixture of biased-taken, loop and random sites should land well
	// inside (0.5, 1.0).
	if rate < 0.5 || rate > 0.95 {
		t.Errorf("taken rate %.3f, expected between 0.5 and 0.95", rate)
	}
}

func TestPCStaysInCodeRegion(t *testing.T) {
	p, _ := CPUWorkload("barnes")
	g := MustGenerator(p, 4, 1)
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.PC < g.codeLo || in.PC >= g.codeHi {
			t.Fatalf("PC %#x outside code region [%#x, %#x)", in.PC, g.codeLo, g.codeHi)
		}
	}
}

func TestFPFraction(t *testing.T) {
	p, _ := CPUWorkload("blackscholes")
	if f := p.FPFraction(); f < 0.4 || f > 0.7 {
		t.Errorf("blackscholes FP fraction %.2f, expected heavy FP", f)
	}
	p2, _ := CPUWorkload("radix")
	if f := p2.FPFraction(); f != 0 {
		t.Errorf("radix FP fraction %.2f, want 0", f)
	}
}

func TestOpString(t *testing.T) {
	names := map[Op]string{IntALU: "alu", IntMul: "mul", IntDiv: "div",
		FPAdd: "fadd", FPMul: "fmul", FPDiv: "fdiv", Load: "ld", Store: "st", Branch: "br"}
	for op, want := range names {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if Op(99).String() != "Op(99)" {
		t.Errorf("unknown op string = %q", Op(99).String())
	}
}

// Property: every generated instruction is internally consistent for every
// workload and arbitrary seeds.
func TestInstConsistencyProperty(t *testing.T) {
	profiles := CPUWorkloads()
	f := func(seed uint64, coreRaw uint8, pick uint8) bool {
		p := profiles[int(pick)%len(profiles)]
		g := MustGenerator(p, seed, int(coreRaw)%8)
		for i := 0; i < 200; i++ {
			in := g.Next()
			if in.Dep1 < 0 || in.Dep2 < 0 {
				return false
			}
			if in.Op.IsMem() && in.Addr == 0 {
				return false
			}
			if !in.Op.IsMem() && in.Addr != 0 {
				return false
			}
			if in.Taken && in.Op != Branch {
				return false
			}
			if in.Shared && !in.Op.IsMem() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Integer-side instructions should rarely depend on FP producers — the
// dataflow-separation property that keeps FP latency off the integer
// critical path.
func TestIntFPDataflowSeparation(t *testing.T) {
	p, _ := CPUWorkload("lu") // 42% FP
	g := MustGenerator(p, 17, 0)
	var insts []Inst
	for i := 0; i < 100000; i++ {
		insts = append(insts, g.Next())
	}
	fpProducers, intConsumers := 0, 0
	for i, in := range insts {
		if in.Op.IsFP() || in.Op == Store || in.Dep1 <= 0 || i-in.Dep1 < 0 {
			continue
		}
		intConsumers++
		if insts[i-in.Dep1].Op.IsFP() {
			fpProducers++
		}
	}
	rate := float64(fpProducers) / float64(intConsumers)
	// Without the redraw, ~42% of int deps would land on FP producers;
	// with it, far fewer should.
	if rate > 0.20 {
		t.Errorf("int-on-FP dependency rate %.3f, dataflow separation broken", rate)
	}
}

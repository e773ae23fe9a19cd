package trace

import "fmt"

// Address-space layout of a synthetic process. Regions are placed in
// disjoint high-address ranges; private regions additionally get a
// per-core offset so distinct cores never falsely share lines, while the
// shared region is at the same addresses on every core.
const (
	codeBase   = uint64(0x0100_0000_0000)
	hotBase    = uint64(0x0200_0000_0000)
	midBase    = uint64(0x0300_0000_0000)
	largeBase  = uint64(0x0400_0000_0000)
	streamBase = uint64(0x0500_0000_0000)
	sharedBase = uint64(0x0600_0000_0000)
	coreStride = uint64(0x0000_1000_0000) // 256 MB between cores' regions

	// sharedBytes is the size of the cross-core shared region.
	sharedBytes = uint64(64 * kb)
)

// branchKind classifies a static branch site.
type branchKind uint8

const (
	branchUnseen branchKind = iota // not reached yet
	branchBiased                   // taken with fixed high probability
	branchLoop                     // taken (period-1) times, then not taken
	branchRandom                   // 50/50, unpredictable
)

// branchSite is the persistent state of one static branch.
type branchSite struct {
	kind    branchKind
	period  int32 // loop sites
	counter int32
}

// Thresholds (see threshold) of the generator's fixed probabilities.
var (
	fpIndepT = threshold(0.55)
	coinT    = threshold(0.5)
)

// Generator produces the deterministic instruction stream of one core
// executing one workload. It implements an infinite stream; callers decide
// how many instructions constitute a run.
type Generator struct {
	prof   Profile
	rng    RNG
	core   int
	pc     uint64
	stream uint64 // streaming-region cursor
	// sites holds the static branch at codeLo+4i in sites[i].
	sites []branchSite

	// Integer thresholds (see threshold) of every probability Next draws
	// against, so each draw is one compare: the cumulative op mix, the
	// dependency and sharing probabilities, the geometric success
	// probabilities 1/mean of integer and FP producers, and the
	// cumulative hot/mid/large region fractions.
	opT                     [numOps]uint64
	loadDepT, twoT, twoFPT  uint64
	depT, depFPT            uint64
	repeatT, sharedT, biasT uint64
	hotT, midT, largeT      uint64

	codeLo, codeHi uint64
	hotLo          uint64
	midLo          uint64
	largeLo        uint64
	generated      uint64
	sinceLoad      int // instructions since the last load (0 = none yet)
	// opHist remembers recent op classes so integer-side dependencies
	// can avoid pointing at FP producers (address arithmetic and loop
	// control do not consume FP results).
	opHist [64]Op
	// recentLines holds the last few accessed data lines for the
	// RepeatFrac locality model.
	recentLines [4]uint64
	recentN     int
	recentCur   int
}

// NewGenerator builds a generator for the profile, seed and core ID.
// The same triple always yields the same stream.
func NewGenerator(prof Profile, seed uint64, core int) (*Generator, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	if core < 0 {
		return nil, fmt.Errorf("trace: negative core ID %d", core)
	}
	off := uint64(core) * coreStride
	g := &Generator{
		prof:    prof,
		rng:     *NewRNG(seed ^ hash64(prof.Name) ^ (uint64(core) * 0xabcdef123457)),
		core:    core,
		sites:   make([]branchSite, (prof.CodeBytes+3)/4),
		codeLo:  codeBase + off,
		hotLo:   hotBase + off,
		midLo:   midBase + off,
		largeLo: largeBase + off,
		stream:  streamBase + off,
	}
	g.codeHi = g.codeLo + prof.CodeBytes
	g.pc = g.codeLo

	var sum float64
	for _, w := range prof.Mix {
		sum += w
	}
	acc := 0.0
	for i, w := range prof.Mix {
		acc += w / sum
		g.opT[i] = threshold(acc)
	}
	g.opT[numOps-1] = threshold(1) // absorb rounding

	g.loadDepT = threshold(prof.LoadDepBias)
	g.twoT = threshold(prof.TwoSrcProb)
	g.twoFPT = threshold(prof.TwoSrcProb * 0.45)
	g.depT = threshold(1 / prof.MeanDep)
	g.depFPT = threshold(1 / (prof.MeanDep * prof.FPDepScale))
	g.repeatT = threshold(prof.RepeatFrac)
	g.sharedT = threshold(prof.SharedFrac)
	g.biasT = threshold(prof.BiasedTakenProb)
	g.hotT = threshold(prof.HotFrac)
	g.midT = threshold(prof.HotFrac + prof.MidFrac)
	g.largeT = threshold(prof.HotFrac + prof.MidFrac + prof.LargeFrac)
	return g, nil
}

// MustGenerator is NewGenerator for known-good profiles; it panics on
// error. Used by examples and benchmarks.
func MustGenerator(prof Profile, seed uint64, core int) *Generator {
	g, err := NewGenerator(prof, seed, core)
	if err != nil {
		panic(err)
	}
	return g
}

// Generated returns how many instructions have been produced so far.
func (g *Generator) Generated() uint64 { return g.generated }

// hash64 is FNV-1a over a string, for seeding.
func hash64(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Next produces the next dynamic instruction.
func (g *Generator) Next() Inst {
	g.generated++
	op := g.pickOp()
	in := Inst{Op: op, PC: g.pc}

	// Register dependencies. Non-loads consume the latest load's result
	// with probability LoadDepBias (load-use chains); otherwise the
	// producer distance is geometric, with FP instructions drawing
	// longer distances (mean scaled by FPDepScale: high FP ILP) and a
	// second source less often.
	depT, twoT := g.depT, g.twoT
	fp := op.IsFP()
	if fp {
		depT, twoT = g.depFPT, g.twoFPT
	}
	switch {
	case op != Load && g.sinceLoad > 0 && g.sinceLoad < 64 && g.rng.below(g.loadDepT):
		in.Dep1 = g.sinceLoad
	case fp && g.rng.below(fpIndepT):
		// Independent FP operation (fresh accumulator, immediate
		// operand): FP kernels expose many parallel chains.
	default:
		in.Dep1 = g.dep(op, depT)
	}
	if g.rng.below(twoT) {
		in.Dep2 = g.dep(op, depT)
	}
	if op == Load {
		g.sinceLoad = 0
	}
	g.sinceLoad++
	g.opHist[g.generated%uint64(len(g.opHist))] = op

	switch {
	case op.IsMem():
		in.Addr, in.Shared = g.pickAddr()
	case op == Branch:
		site := g.site(g.pc)
		in.Taken = g.outcome(site)
	}

	// Advance the PC walk: sequential inside the code region; taken
	// branches jump to a random 64-byte block start; wrap at the end.
	if op == Branch && in.Taken {
		blocks := g.prof.CodeBytes / 64
		g.pc = g.codeLo + 64*(g.rng.Uint64()%blocks)
	} else {
		g.pc += 4
		if g.pc >= g.codeHi {
			g.pc = g.codeLo
		}
	}
	return in
}

// dep draws a geometric dependency distance. Integer-side consumers (ALU,
// mul/div, loads, branches) redraw when the producer at that distance was
// a floating-point instruction: int and FP dataflow are largely disjoint
// in real code, and this keeps FP latency off the integer critical path.
func (g *Generator) dep(op Op, t uint64) int {
	d := g.rng.geometric(t)
	if op.IsFP() || op == Store {
		return d
	}
	for try := 0; try < 3; try++ {
		if uint64(d) > g.generated || d >= len(g.opHist) {
			break
		}
		idx := (g.generated - uint64(d)) % uint64(len(g.opHist))
		if !g.opHist[idx].IsFP() {
			break
		}
		d = g.rng.geometric(t)
	}
	return d
}

// pickOp samples the instruction class from the normalised mix.
func (g *Generator) pickOp() Op {
	k := g.rng.Uint64() >> 11
	for i, t := range g.opT {
		if k < t {
			return Op(i)
		}
	}
	return Branch
}

// pickAddr samples a data address from the working-set model.
func (g *Generator) pickAddr() (addr uint64, shared bool) {
	// Short-term reuse: re-touch a recently accessed line.
	if g.recentN > 0 && g.rng.below(g.repeatT) {
		line := g.recentLines[g.rng.Intn(g.recentN)]
		return line*64 + align8(g.rng.Uint64()%64), false
	}
	addr, shared = g.pickRegionAddr()
	if !shared {
		g.recentLines[g.recentCur] = addr / 64
		g.recentCur = (g.recentCur + 1) % len(g.recentLines)
		if g.recentN < len(g.recentLines) {
			g.recentN++
		}
	}
	return addr, shared
}

func (g *Generator) pickRegionAddr() (addr uint64, shared bool) {
	k := g.rng.Uint64() >> 11
	switch {
	case k < g.hotT:
		// Hot accesses may hit the cross-core shared region.
		if g.rng.below(g.sharedT) {
			return sharedBase + align8(g.rng.Uint64()%sharedBytes), true
		}
		// Skew toward low offsets: the product of HotSkew uniforms
		// concentrates accesses on a small MRU-friendly footprint.
		u := g.rng.Float64()
		for i := 1; i < g.prof.HotSkew; i++ {
			u *= g.rng.Float64()
		}
		off := uint64(u * float64(g.prof.HotBytes))
		if off >= g.prof.HotBytes {
			off = g.prof.HotBytes - 1
		}
		return g.hotLo + align8(off), false
	case k < g.midT:
		return g.midLo + align8(g.rng.Uint64()%g.prof.MidBytes), false
	case k < g.largeT:
		// The large region is also reused with a skew (product of two
		// uniforms): programs revisit a warm subset of their big data
		// structures rather than sweeping DRAM uniformly.
		u := g.rng.Float64() * g.rng.Float64()
		off := uint64(u * float64(g.prof.LargeBytes))
		if off >= g.prof.LargeBytes {
			off = g.prof.LargeBytes - 1
		}
		return g.largeLo + align8(off), false
	default:
		g.stream += 8
		return g.stream, false
	}
}

func align8(x uint64) uint64 { return x &^ 7 }

// site returns (creating if needed) the persistent state of the static
// branch at pc. Site kinds are assigned deterministically from the PC so
// the population matches the profile's fractions.
func (g *Generator) site(pc uint64) *branchSite {
	s := &g.sites[(pc-g.codeLo)/4]
	if s.kind != branchUnseen {
		return s
	}
	h := pc * 0x9e3779b97f4a7c15
	u := float64(h>>11) / (1 << 53)
	switch {
	case u < g.prof.BiasedFrac:
		s.kind = branchBiased
	case u < g.prof.BiasedFrac+g.prof.LoopFrac:
		s.kind = branchLoop
		// Vary periods across sites: period in [2, 2*LoopPeriod).
		s.period = 2 + int32((h>>32)%uint64(2*g.prof.LoopPeriod-2))
	default:
		s.kind = branchRandom
	}
	return s
}

// outcome advances a branch site's state machine and returns taken/not.
func (g *Generator) outcome(s *branchSite) bool {
	switch s.kind {
	case branchBiased:
		return g.rng.below(g.biasT)
	case branchLoop:
		s.counter++
		if s.counter >= s.period {
			s.counter = 0
			return false // loop exit
		}
		return true // back edge
	default:
		return g.rng.below(coinT)
	}
}

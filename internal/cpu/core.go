package cpu

import (
	"fmt"

	"hetcore/internal/trace"
)

// MemPort is the core's view of the memory hierarchy: each call returns
// the access's round-trip latency in cycles (at least 1; the scheduler
// never forwards a result within its issue cycle). The hetsim package binds a
// core ID to a shared cache.Hierarchy; tests can supply fakes.
type MemPort interface {
	InstFetch(pc uint64) int
	Read(addr uint64) int
	Write(addr uint64) int
}

// InstSource supplies the dynamic instruction stream (normally a
// *trace.Generator).
type InstSource interface {
	Next() trace.Inst
}

// Stats aggregates a core's activity for reporting and for the energy
// model.
type Stats struct {
	Cycles    uint64
	Committed uint64

	// Ops counts committed instructions per class.
	Ops [9]uint64 // indexed by trace.Op

	// Dual-speed cluster: ALU/branch operations executed on the CMOS
	// ALU vs the TFET ALUs (equal to total ALU ops when the cluster is
	// disabled, all counted as Slow/Fast per the pool technology).
	ALUFastOps, ALUSlowOps uint64
	// SteeredFast counts dispatch decisions that requested the CMOS ALU.
	SteeredFast uint64

	// Register file activity.
	IntRegReads, IntRegWrites uint64
	FPRegReads, FPRegWrites   uint64

	// FetchLines counts IL1 line fetches performed by the frontend.
	FetchLines uint64

	// Dispatch stall cycles by cause.
	StallROB, StallIQ, StallLSQ, StallRegs, StallFetch uint64

	// Occupancy accumulators (sum over cycles; divide by Cycles).
	ROBOccAccum, IQOccAccum, LSQOccAccum uint64

	// Attr is the top-down cycle attribution: every cycle is binned
	// into exactly one bucket, so Attr.Total() == Cycles.
	Attr CycleAttr

	BPred BPredStats
}

// CycleAttr bins every core cycle into one top-down bucket. A cycle is
// classified by the highest-priority condition that holds: retirement
// first, then the backend memory wait, then frontend causes, then
// dispatch backpressure; everything else is an issue-side stall
// (non-ready operands or functional-unit contention).
type CycleAttr struct {
	// CommitBound: at least one instruction retired this cycle.
	CommitBound uint64 `json:"commit_bound"`
	// MemStall: the ROB head is an issued memory operation still
	// waiting for the hierarchy.
	MemStall uint64 `json:"mem_stall"`
	// MispredictRecovery: the frontend is squashed or refilling after a
	// branch mispredict.
	MispredictRecovery uint64 `json:"mispredict_recovery"`
	// FetchStall: the frontend is waiting on an IL1 miss or BTB bubble.
	FetchStall uint64 `json:"fetch_stall"`
	// RenameStall: dispatch is blocked on ROB/IQ/LSQ/physical-register
	// backpressure.
	RenameStall uint64 `json:"rename_stall"`
	// IssueStall: work is in flight but nothing retired — operands not
	// ready or functional units busy.
	IssueStall uint64 `json:"issue_stall"`
}

// Total returns the number of attributed cycles.
func (a CycleAttr) Total() uint64 {
	return a.CommitBound + a.MemStall + a.MispredictRecovery +
		a.FetchStall + a.RenameStall + a.IssueStall
}

// Delta returns a minus an earlier snapshot, field-wise.
func (a CycleAttr) Delta(prev CycleAttr) CycleAttr {
	return CycleAttr{
		CommitBound:        a.CommitBound - prev.CommitBound,
		MemStall:           a.MemStall - prev.MemStall,
		MispredictRecovery: a.MispredictRecovery - prev.MispredictRecovery,
		FetchStall:         a.FetchStall - prev.FetchStall,
		RenameStall:        a.RenameStall - prev.RenameStall,
		IssueStall:         a.IssueStall - prev.IssueStall,
	}
}

// Add accumulates another attribution (summing cores).
func (a CycleAttr) Add(o CycleAttr) CycleAttr {
	return CycleAttr{
		CommitBound:        a.CommitBound + o.CommitBound,
		MemStall:           a.MemStall + o.MemStall,
		MispredictRecovery: a.MispredictRecovery + o.MispredictRecovery,
		FetchStall:         a.FetchStall + o.FetchStall,
		RenameStall:        a.RenameStall + o.RenameStall,
		IssueStall:         a.IssueStall + o.IssueStall,
	}
}

// Map returns the buckets keyed by their run-record names.
func (a CycleAttr) Map() map[string]uint64 {
	return map[string]uint64{
		"commit_bound":        a.CommitBound,
		"mem_stall":           a.MemStall,
		"mispredict_recovery": a.MispredictRecovery,
		"fetch_stall":         a.FetchStall,
		"rename_stall":        a.RenameStall,
		"issue_stall":         a.IssueStall,
	}
}

// Delta returns s minus an earlier snapshot, field-wise. Used to exclude
// warmup from measurements.
func (s Stats) Delta(prev Stats) Stats {
	d := Stats{
		Cycles:      s.Cycles - prev.Cycles,
		Committed:   s.Committed - prev.Committed,
		ALUFastOps:  s.ALUFastOps - prev.ALUFastOps,
		ALUSlowOps:  s.ALUSlowOps - prev.ALUSlowOps,
		SteeredFast: s.SteeredFast - prev.SteeredFast,
		IntRegReads: s.IntRegReads - prev.IntRegReads, IntRegWrites: s.IntRegWrites - prev.IntRegWrites,
		FPRegReads: s.FPRegReads - prev.FPRegReads, FPRegWrites: s.FPRegWrites - prev.FPRegWrites,
		FetchLines: s.FetchLines - prev.FetchLines,
		StallROB:   s.StallROB - prev.StallROB, StallIQ: s.StallIQ - prev.StallIQ,
		StallLSQ: s.StallLSQ - prev.StallLSQ, StallRegs: s.StallRegs - prev.StallRegs,
		StallFetch:  s.StallFetch - prev.StallFetch,
		ROBOccAccum: s.ROBOccAccum - prev.ROBOccAccum,
		IQOccAccum:  s.IQOccAccum - prev.IQOccAccum,
		LSQOccAccum: s.LSQOccAccum - prev.LSQOccAccum,
		Attr:        s.Attr.Delta(prev.Attr),
		BPred: BPredStats{
			Lookups:     s.BPred.Lookups - prev.BPred.Lookups,
			Mispredicts: s.BPred.Mispredicts - prev.BPred.Mispredicts,
			BTBMisses:   s.BPred.BTBMisses - prev.BPred.BTBMisses,
		},
	}
	for i := range s.Ops {
		d.Ops[i] = s.Ops[i] - prev.Ops[i]
	}
	return d
}

// TimeNS returns the execution time in nanoseconds at the given clock.
func (s Stats) TimeNS(freqGHz float64) float64 {
	return float64(s.Cycles) / freqGHz
}

// robEntry is one in-flight instruction.
type robEntry struct {
	op        trace.Op
	seq       uint64
	addr      uint64
	doneCycle int64
	// wake is the cycle the operands of issued producers arrive; pending
	// counts producers that have not issued yet (see sched.go).
	wake    int64
	pending int8
	// waiters heads the list of consumers waiting on this entry to
	// issue; waitNext[k] links this entry's operand k into its
	// producer's list.
	waiters   int32
	waitNext  [2]int32
	issued    bool
	steerFast bool // dual-speed: wants the CMOS ALU
	mispred   bool
}

// laSlot is one decoded lookahead instruction with its prediction.
type laSlot struct {
	in   trace.Inst
	pred Prediction
}

// Core is one simulated out-of-order core.
type Core struct {
	cfg Config
	bp  *BPred
	mem MemPort
	src InstSource

	cycle int64
	seq   uint64 // next sequence number to dispatch (1-based)

	rob                        []robEntry // ring buffer
	robHead, robTail, robCount int

	// Issue queue (sched.go): iqCount counts the unissued entries, ready
	// holds the ROB indexes of those whose operands are available, in
	// program order, and wakeQ the ones whose operands arrive later.
	// doneQ holds the completion cycles of issued entries.
	iqCount int
	ready   []int
	soon    []int // woken during the issue walk, ready next cycle
	wakeQ   cycleHeap
	doneQ   cycleHeap
	lsq     int // occupied LSQ slots

	// Lookahead decode buffer for steering and fetch modelling: a
	// power-of-two ring holding laLen slots from laHead, oldest first,
	// refilled to laNeed.
	la                    []laSlot
	laHead, laLen, laNeed int

	// Frontend state.
	fetchResume     int64
	resumeMispred   bool // fetchResume was set by a mispredict redirect
	lastLine        uint64
	pendingRedirect bool
	redirectIdx     int // ROB index of the unresolved mispredicted branch

	// renameBlocked records whether the last dispatch attempt hit
	// backend backpressure (ROB/IQ/LSQ/registers) — cycle attribution.
	renameBlocked bool

	// In-flight register pressure (physical minus architectural regs).
	intInFlight, fpInFlight   int
	intRegBudget, fpRegBudget int

	// Divider free times (one per unit in the pool).
	intDivFree []int64
	fpDivFree  []int64

	// Periodic telemetry: sample fires with the cumulative Stats every
	// time the cycle count crosses a multiple of sampleEvery. nextSample
	// is MaxUint64 when sampling is disarmed, so the hot path pays one
	// compare.
	sample      func(Stats)
	sampleEvery uint64
	nextSample  uint64

	stats Stats
}

// NewCore builds a core over a memory port and instruction source.
func NewCore(cfg Config, mem MemPort, src InstSource) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if mem == nil || src == nil {
		return nil, fmt.Errorf("cpu: nil memory port or instruction source")
	}
	bp, err := NewBPred(cfg.BPred)
	if err != nil {
		return nil, err
	}
	const archRegs = 32
	c := &Core{
		cfg:          cfg,
		bp:           bp,
		mem:          mem,
		src:          src,
		rob:          make([]robEntry, cfg.ROBSize),
		ready:        make([]int, 0, cfg.IQSize),
		soon:         make([]int, 0, cfg.IQSize),
		wakeQ:        make(cycleHeap, 0, cfg.ROBSize),
		doneQ:        make(cycleHeap, 0, cfg.ROBSize),
		intDivFree:   make([]int64, cfg.NumMul),
		fpDivFree:    make([]int64, cfg.NumFPU),
		intRegBudget: max(8, cfg.IntRegs-archRegs),
		fpRegBudget:  max(8, cfg.FPRegs-archRegs),
		lastLine:     ^uint64(0),
		nextSample:   ^uint64(0),
	}
	// la[0] must exist, and steering looks SteerWindow instructions
	// past it.
	c.laNeed = max(1, cfg.SteerWindow+1)
	c.la = make([]laSlot, nextPow2(c.laNeed))
	return c, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Stats returns a copy of the counters (predictor stats included).
func (c *Core) Stats() Stats {
	s := c.stats
	s.BPred = c.bp.Stats()
	return s
}

// SetSampler arms periodic telemetry: fn is called with the cumulative
// Stats every time the core's cycle count crosses a multiple of
// intervalCycles (at most once per crossing — a fast-forward skip over
// several intervals fires one sample). intervalCycles 0 or a nil fn
// disarms sampling; a disarmed core pays one integer compare per cycle.
func (c *Core) SetSampler(intervalCycles uint64, fn func(Stats)) {
	if intervalCycles == 0 || fn == nil {
		c.sample, c.sampleEvery, c.nextSample = nil, 0, ^uint64(0)
		return
	}
	c.sample = fn
	c.sampleEvery = intervalCycles
	c.nextSample = (c.stats.Cycles/intervalCycles + 1) * intervalCycles
}

// maybeSample fires the telemetry callback if the cycle count crossed
// the next sampling boundary, then re-arms past the current cycle.
func (c *Core) maybeSample() {
	if c.stats.Cycles < c.nextSample {
		return
	}
	c.nextSample = (c.stats.Cycles/c.sampleEvery + 1) * c.sampleEvery
	c.sample(c.Stats())
}

// Run simulates until n instructions have committed and returns the final
// stats.
func (c *Core) Run(n uint64) Stats {
	target := c.stats.Committed + n
	for c.stats.Committed < target {
		c.step()
	}
	return c.Stats()
}

// step advances one cycle (possibly fast-forwarding through guaranteed-idle
// cycles).
func (c *Core) step() {
	c.cycle++
	c.stats.Cycles++
	c.stats.ROBOccAccum += uint64(c.robCount)
	c.stats.IQOccAccum += uint64(c.iqCount)
	c.stats.LSQOccAccum += uint64(c.lsq)

	committed := c.commit()
	issued := c.issue()
	dispatched := c.dispatch()

	if committed > 0 {
		c.stats.Attr.CommitBound++
	} else {
		*c.stallBucket() += 1
	}

	if committed == 0 && issued == 0 && dispatched == 0 {
		c.fastForward()
	}
	c.maybeSample()
}

// stallBucket classifies a cycle with no retirement. The checks read
// only state that is stable across a fast-forward skip, so the same
// classification applies to every skipped cycle.
func (c *Core) stallBucket() *uint64 {
	a := &c.stats.Attr
	if c.robCount > 0 {
		if e := &c.rob[c.robHead]; e.issued && e.doneCycle > c.cycle && e.op.IsMem() {
			return &a.MemStall
		}
	}
	if c.pendingRedirect || (c.cycle < c.fetchResume && c.resumeMispred) {
		return &a.MispredictRecovery
	}
	if c.cycle < c.fetchResume {
		return &a.FetchStall
	}
	if c.renameBlocked {
		return &a.RenameStall
	}
	return &a.IssueStall
}

// fastForward jumps the clock to the next cycle where progress is
// possible: the earliest outstanding completion or the frontend resume
// time. The skipped cycles still elapse (they are counted), preserving
// timing while saving simulation work.
func (c *Core) fastForward() {
	next := int64(1 << 62)
	// Completions at or before this cycle have retired or will retire
	// without waiting; the earliest later one is doneQ's minimum.
	c.dropPastDone()
	if len(c.doneQ) > 0 {
		next = c.doneQ[0].at
	}
	if c.fetchResume > c.cycle && c.fetchResume < next {
		next = c.fetchResume
	}
	if next == 1<<62 || next <= c.cycle {
		return // nothing outstanding; the next step will dispatch
	}
	skip := uint64(next - c.cycle - 1)
	c.cycle = next - 1
	c.stats.Cycles += skip
	c.stats.ROBOccAccum += skip * uint64(c.robCount)
	c.stats.IQOccAccum += skip * uint64(c.iqCount)
	c.stats.LSQOccAccum += skip * uint64(c.lsq)
	if skip > 0 {
		// The machine state is frozen across the skip, so one
		// classification covers every skipped cycle.
		*c.stallBucket() += skip
	}
}

// commit retires completed instructions in order.
func (c *Core) commit() int {
	done := 0
	for done < c.cfg.CommitWidth && c.robCount > 0 {
		e := &c.rob[c.robHead]
		if !e.issued || e.doneCycle > c.cycle {
			break
		}
		if e.op == trace.Store {
			// Stores drain to the DL1 at commit through the write
			// buffer; the latency is off the critical path.
			c.mem.Write(e.addr)
			c.lsq--
		}
		if e.mispred && c.pendingRedirect && c.redirectIdx == c.robHead {
			// Should have been cleared at issue; defensive.
			c.pendingRedirect = false
		}
		c.retireRegs(e.op)
		c.stats.Ops[e.op]++
		c.stats.Committed++
		c.robHead = (c.robHead + 1) % len(c.rob)
		c.robCount--
		done++
	}
	return done
}

func (c *Core) retireRegs(op trace.Op) {
	if op.IsFP() {
		c.fpInFlight--
	} else if op != trace.Store && op != trace.Branch {
		c.intInFlight--
	}
}

// issue schedules ready IQ entries onto functional units, oldest first.
func (c *Core) issue() int {
	for len(c.wakeQ) > 0 && c.wakeQ[0].at <= c.cycle {
		c.insertReady(int(c.wakeQ.pop().idx))
	}
	if len(c.ready) == 0 {
		return 0
	}
	issued := 0
	fastALU, slowALU, mul, lsu, fpu := 0, 0, 0, 0, 0
	slowALUSlots := c.cfg.NumALU
	if c.cfg.DualSpeedALU {
		slowALUSlots = c.cfg.NumALU - 1
	}

	kept := c.ready[:0]
	for i, idx := range c.ready {
		if issued >= c.cfg.IssueWidth {
			kept = append(kept, c.ready[i:]...)
			break
		}
		e := &c.rob[idx]
		var lat int
		ok := false
		switch e.op {
		case trace.IntALU, trace.Branch:
			if c.cfg.DualSpeedALU {
				// Steered-fast ops prefer the CMOS ALU; fall back to a
				// TFET ALU rather than stall (mis-steer costs 1 cycle).
				if e.steerFast && fastALU == 0 {
					fastALU, lat, ok = 1, c.cfg.CMOSALULat, true
					c.stats.ALUFastOps++
				} else if slowALU < slowALUSlots {
					slowALU++
					lat, ok = c.cfg.IntLat.ALU, true
					c.stats.ALUSlowOps++
				} else if fastALU == 0 {
					fastALU, lat, ok = 1, c.cfg.CMOSALULat, true
					c.stats.ALUFastOps++
				}
			} else if slowALU < c.cfg.NumALU {
				slowALU++
				lat, ok = c.cfg.IntLat.ALU, true
				c.stats.ALUSlowOps++
			}
		case trace.IntMul:
			if mul < c.cfg.NumMul {
				mul++
				lat, ok = c.cfg.IntLat.IntMul, true
			}
		case trace.IntDiv:
			if mul < c.cfg.NumMul {
				if u := freeUnit(c.intDivFree, c.cycle); u >= 0 {
					mul++
					c.intDivFree[u] = c.cycle + int64(c.cfg.IntLat.IntDivIssueInterval)
					lat, ok = c.cfg.IntLat.IntDiv, true
				}
			}
		case trace.FPAdd:
			if fpu < c.cfg.NumFPU {
				fpu++
				lat, ok = c.cfg.FPLat.FPAdd, true
			}
		case trace.FPMul:
			if fpu < c.cfg.NumFPU {
				fpu++
				lat, ok = c.cfg.FPLat.FPMul, true
			}
		case trace.FPDiv:
			if fpu < c.cfg.NumFPU {
				if u := freeUnit(c.fpDivFree, c.cycle); u >= 0 {
					fpu++
					c.fpDivFree[u] = c.cycle + int64(c.cfg.FPLat.FPDivIssueInterval)
					lat, ok = c.cfg.FPLat.FPDiv, true
				}
			}
		case trace.Load:
			if lsu < c.cfg.NumLSU {
				lsu++
				lat, ok = c.mem.Read(e.addr), true
			}
		case trace.Store:
			if lsu < c.cfg.NumLSU {
				lsu++
				// Address generation only; data drains at commit.
				lat, ok = 1, true
			}
		}
		if !ok {
			kept = append(kept, idx)
			continue
		}
		e.issued = true
		e.doneCycle = c.cycle + int64(lat)
		c.iqCount--
		c.wakeConsumers(e)
		c.noteDone(e.doneCycle)
		if e.op == trace.Load {
			c.lsq--
		}
		if e.mispred {
			// Redirect: the frontend refills after resolution.
			r := e.doneCycle + int64(c.cfg.MispredictPenalty)
			if r > c.fetchResume {
				c.fetchResume = r
				c.resumeMispred = true
			}
			if c.pendingRedirect && c.redirectIdx == idx {
				c.pendingRedirect = false
			}
		}
		issued++
	}
	c.ready = kept
	for _, idx := range c.soon {
		c.insertReady(idx)
	}
	c.soon = c.soon[:0]
	return issued
}

// freeUnit returns the index of a divider whose issue interval has
// elapsed, or -1.
func freeUnit(free []int64, cycle int64) int {
	for i, f := range free {
		if f <= cycle {
			return i
		}
	}
	return -1
}

// dispatch renames and inserts up to FetchWidth instructions into the
// window.
func (c *Core) dispatch() int {
	c.renameBlocked = false
	if c.pendingRedirect {
		c.stats.StallFetch++
		return 0
	}
	if c.cycle < c.fetchResume {
		c.stats.StallFetch++
		return 0
	}
	n := 0
	for n < c.cfg.FetchWidth {
		if c.robCount >= c.cfg.ROBSize {
			c.stats.StallROB++
			c.renameBlocked = true
			break
		}
		if c.iqCount >= c.cfg.IQSize {
			c.stats.StallIQ++
			c.renameBlocked = true
			break
		}
		c.fillLookahead()
		in := c.la[c.laHead].in
		if in.Op.IsMem() && c.lsq >= c.cfg.LSQSize {
			c.stats.StallLSQ++
			c.renameBlocked = true
			break
		}
		if in.Op.IsFP() && c.fpInFlight >= c.fpRegBudget {
			c.stats.StallRegs++
			c.renameBlocked = true
			break
		}
		if !in.Op.IsFP() && in.Op != trace.Store && in.Op != trace.Branch &&
			c.intInFlight >= c.intRegBudget {
			c.stats.StallRegs++
			c.renameBlocked = true
			break
		}

		// Frontend: account an IL1 access per new line and charge any
		// miss latency beyond the pipelined hit time as a fetch stall.
		line := in.PC / uint64(c.cfg.LineSize)
		if line != c.lastLine {
			c.lastLine = line
			c.stats.FetchLines++
			lat := c.mem.InstFetch(in.PC)
			if extra := int64(lat - 2); extra > 0 {
				c.fetchResume = c.cycle + extra
				c.resumeMispred = false
			}
		}

		pred := c.la[c.laHead].pred
		c.popLookahead()

		c.seq++
		idx := c.robTail
		e := &c.rob[idx]
		*e = robEntry{op: in.Op, seq: c.seq, addr: in.Addr}
		// Producers farther back than the window have committed and are
		// therefore ready.
		c.depend(idx, 0, in.Dep1)
		c.depend(idx, 1, in.Dep2)

		c.countRegs(in)

		switch in.Op {
		case trace.Branch:
			misp := c.bp.Update(in.PC, in.Taken, pred)
			e.mispred = misp
			if misp {
				c.pendingRedirect = true
				c.redirectIdx = idx
			} else if in.Taken && !pred.BTBHit {
				if r := c.cycle + int64(c.cfg.BTBMissPenalty); r > c.fetchResume {
					c.fetchResume = r
					c.resumeMispred = false
				}
			}
		case trace.Load, trace.Store:
			c.lsq++
		}
		if c.cfg.DualSpeedALU && (in.Op == trace.IntALU || in.Op == trace.Branch) {
			e.steerFast = c.steer()
			if e.steerFast {
				c.stats.SteeredFast++
			}
		}

		c.robTail = (c.robTail + 1) % len(c.rob)
		c.robCount++
		c.iqCount++
		switch {
		case e.pending > 0:
			// Waits for a producer to issue (wakeConsumers).
		case e.wake <= c.cycle+1:
			// Ready by the next issue; the youngest entry goes last.
			c.ready = append(c.ready, idx)
		default:
			c.wakeQ.push(e.wake, idx)
		}
		n++

		if e.mispred {
			break // no dispatch past an unresolved mispredict
		}
		if c.cycle < c.fetchResume {
			break // IL1 miss or BTB bubble interrupts the fetch group
		}
	}
	return n
}

func (c *Core) countRegs(in trace.Inst) {
	srcs := uint64(0)
	if in.Dep1 > 0 {
		srcs++
	}
	if in.Dep2 > 0 {
		srcs++
	}
	if in.Op.IsFP() {
		c.stats.FPRegReads += srcs
		c.stats.FPRegWrites++
		c.fpInFlight++
		return
	}
	c.stats.IntRegReads += srcs
	switch in.Op {
	case trace.Store, trace.Branch:
		// no destination register
	default:
		c.stats.IntRegWrites++
		c.intInFlight++
	}
}

// steer implements the Section IV-C2 dispatch-stage heuristic: the
// instruction goes to the CMOS ALU if a consumer appears within the next
// SteerWindow instructions (the issue width), i.e. a consumer that could
// want the result back-to-back.
func (c *Core) steer() bool {
	// At this point the steered instruction has been popped, so la[i] is
	// the instruction i+1 positions after it in program order.
	c.fillLookahead()
	w := c.cfg.SteerWindow
	if w > c.laLen {
		w = c.laLen
	}
	mask := len(c.la) - 1
	for i := 0; i < w; i++ {
		d := i + 1
		if in := &c.la[(c.laHead+i)&mask].in; in.Dep1 == d || in.Dep2 == d {
			return true
		}
	}
	return false
}

// fillLookahead tops up the decode buffer so la[0] exists and steering can
// look SteerWindow instructions ahead.
func (c *Core) fillLookahead() {
	if c.laLen >= c.laNeed {
		return
	}
	for ; c.laLen < c.laNeed; c.laLen++ {
		s := &c.la[(c.laHead+c.laLen)&(len(c.la)-1)]
		s.in = c.src.Next()
		s.pred = Prediction{}
		if s.in.Op == trace.Branch {
			s.pred = c.bp.Predict(s.in.PC)
		}
	}
}

func (c *Core) popLookahead() {
	c.laHead = (c.laHead + 1) & (len(c.la) - 1)
	c.laLen--
}

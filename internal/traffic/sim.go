package traffic

import (
	"fmt"
	"math"
	"sort"

	"hetcore/internal/device"
	"hetcore/internal/energy"
	"hetcore/internal/governor"
	"hetcore/internal/obs"
	"hetcore/internal/soc"
)

// Defaults of the service model: a request executes a fixed instruction
// budget (~1 ms on a nominal CMOS core, ~2 ms on a TFET core), and the
// operator's SLO is interactive-service scale.
const (
	DefaultRequestInstr = 2_000_000
	DefaultSLOSec       = 0.050
)

// minFreqGHz is the lowest DVFS step the simulator accepts; below it the
// matched-pair solver leaves the CMOS curve's useful range.
const minFreqGHz = 1.2

// drainCapEpochs bounds the post-trace drain phase; whatever is still
// queued when it expires counts as unserved (SLO violation + deadline
// miss).
const drainCapEpochs = 256

// SimOptions configures one traffic scenario run.
type SimOptions struct {
	// SoC is the core mix serving the traffic (GPU/accel units are
	// ignored: requests run on cores).
	SoC soc.Config
	// Policy makes the per-epoch wake/sleep + DVFS + placement call.
	Policy governor.Scheduler
	// Trace is the offered-load curve; Services the workload mix.
	Trace    Trace
	Services []Service
	// Seed drives arrival generation.
	Seed uint64
	// ReqInstr is the instruction budget per request
	// (DefaultRequestInstr when 0).
	ReqInstr uint64
	// SLOSec is the latency objective (DefaultSLOSec when 0);
	// DeadlineSec the hard deadline (4x the SLO when 0).
	SLOSec      float64
	DeadlineSec float64
	// BudgetW caps the policy's estimated chip power when positive.
	BudgetW float64
	// Obs receives per-epoch series, decision events and counters; nil
	// disables observability.
	Obs *obs.Observer
}

// Result is one simulated traffic scenario. All fields are plain values
// so the dist codec round-trips it exactly.
type Result struct {
	// Scenario is the engine-key config: "<mix>+<policy>".
	Scenario string `json:"scenario"`
	Mix      string `json:"mix"`
	Policy   string `json:"policy"`
	Trace    string `json:"trace"`
	Seed     uint64 `json:"seed"`

	Epochs      int     `json:"epochs"`
	DrainEpochs int     `json:"drain_epochs"`
	EpochSec    float64 `json:"epoch_sec"`
	ReqInstr    uint64  `json:"req_instr"`
	SLOSec      float64 `json:"slo_sec"`
	DeadlineSec float64 `json:"deadline_sec"`
	BudgetW     float64 `json:"budget_w"`

	Requests       uint64 `json:"requests"`
	Completed      uint64 `json:"completed"`
	Unserved       uint64 `json:"unserved"`
	SLOViolations  uint64 `json:"slo_violations"`
	DeadlineMisses uint64 `json:"deadline_misses"`

	P50Sec  float64 `json:"p50_sec"`
	P95Sec  float64 `json:"p95_sec"`
	P99Sec  float64 `json:"p99_sec"`
	MeanSec float64 `json:"mean_sec"`
	MaxSec  float64 `json:"max_sec"`

	DynJ          float64 `json:"dyn_j"`
	LeakJ         float64 `json:"leak_j"`
	EnergyPerReqJ float64 `json:"energy_per_req_j"`
	AvgWatts      float64 `json:"avg_watts"`
	AvgAwakeCMOS  float64 `json:"avg_awake_cmos"`
	AvgAwakeTFET  float64 `json:"avg_awake_tfet"`
	AvgFreqGHz    float64 `json:"avg_freq_ghz"`
	SimSec        float64 `json:"sim_sec"`
}

// Result implements the hetsim device-independent Result surface.
func (r Result) Seconds() float64      { return r.SimSec }
func (r Result) TotalEnergyJ() float64 { return r.DynJ + r.LeakJ }
func (r Result) ED2() float64          { return energy.ED2(r.TotalEnergyJ(), r.SimSec) }

// Record renders the scenario as a run record (host timing is stamped by
// the caller via Observer.FinishRecord).
func (r Result) Record(seed uint64) obs.RunRecord {
	return obs.RunRecord{
		Kind: "traffic", Config: r.Scenario, Workload: r.Trace, Seed: seed,
		Instructions: r.Completed * r.ReqInstr,
		TimeSec:      r.SimSec,
		EnergyJ:      map[string]float64{"dynamic": r.DynJ, "leak": r.LeakJ},
		Extra: map[string]float64{
			"requests":         float64(r.Requests),
			"slo_violations":   float64(r.SLOViolations),
			"deadline_misses":  float64(r.DeadlineMisses),
			"p50_ms":           r.P50Sec * 1e3,
			"p99_ms":           r.P99Sec * 1e3,
			"energy_per_req_j": r.EnergyPerReqJ,
			"avg_watts":        r.AvgWatts,
			"avg_awake_cores":  r.AvgAwakeCMOS + r.AvgAwakeTFET,
			"avg_freq_ghz":     r.AvgFreqGHz,
		},
	}
}

// Simulate steps the SoC through the trace epoch by epoch: the policy
// decides the awake set, the DVFS point and workload affinities; queued
// requests then run to completion on the earliest-finishing eligible
// core (FIFO order, preferred class first when the affinity is
// reachable within half the SLO). Dynamic energy charges each request at
// its executing class's measured per-instruction cost under the epoch's
// voltage pair; every awake core leaks for the whole epoch. After the
// trace, the fleet drains the backlog under the same policy with zero
// offered load. Pure float arithmetic in declared order: equal options
// give bit-equal results on every host.
func Simulate(o SimOptions) (Result, error) {
	if o.ReqInstr == 0 {
		o.ReqInstr = DefaultRequestInstr
	}
	if o.SLOSec == 0 {
		o.SLOSec = DefaultSLOSec
	}
	if o.DeadlineSec == 0 {
		o.DeadlineSec = 4 * o.SLOSec
	}
	if o.Policy == nil {
		return Result{}, fmt.Errorf("traffic: no policy")
	}
	if err := o.SoC.Validate(); err != nil {
		return Result{}, err
	}
	if o.SoC.CMOSCores+o.SoC.TFETCores == 0 {
		return Result{}, fmt.Errorf("traffic: mix %s has no cores to serve requests", o.SoC.Name())
	}
	if err := o.Trace.Validate(); err != nil {
		return Result{}, err
	}
	if len(o.Services) == 0 {
		return Result{}, fmt.Errorf("traffic: no services in the mix")
	}
	for _, s := range o.Services {
		if s.CMOS.RateIPS <= 0 || s.TFET.RateIPS <= 0 {
			return Result{}, fmt.Errorf("traffic: service %s has no measured rate", s.Workload)
		}
	}

	loads := Loads(o.Services, o.ReqInstr)
	reqs := Arrivals(o.Trace, len(o.Services), o.Seed)
	dvfs := device.NewDVFS()
	nominal := dvfs.Nominal()
	maxGHz := dvfs.MaxFrequencyGHz()

	// Per-class per-core leakage at nominal voltage: leakage is a
	// property of the core, so the mean over the mix's component runs.
	var leakC, leakT float64
	for _, s := range o.Services {
		leakC += s.CMOS.LeakW
		leakT += s.TFET.LeakW
	}
	leakC /= float64(len(o.Services))
	leakT /= float64(len(o.Services))

	nC, nT := o.SoC.CMOSCores, o.SoC.TFETCores
	// Core i in [0, nC) is CMOS; [nC, nC+nT) is TFET. nextFree persists
	// across wake/sleep: a core put to sleep finishes its in-flight
	// request and keeps its horizon for when it wakes again.
	nextFree := make([]float64, nC+nT)

	epochs := len(o.Trace.RPS)
	queue := make([]int, 0, 256)
	nextArrival := 0
	latencies := make([]float64, 0, len(reqs))
	ser := o.Obs.TimeSeries()

	var dynJ, leakJ float64
	var sloViol, deadlineMiss, completed, unserved uint64
	var awakeSecC, awakeSecT, freqSum float64
	utilization := 0.0
	awakeC, awakeT := nC, nT // fresh boot: everything on
	simEnd := 0.0
	ranEpochs := 0

	for e := 0; ; e++ {
		t0 := float64(e) * o.Trace.EpochSec
		t1 := t0 + o.Trace.EpochSec
		offered := 0.0
		if e < epochs {
			offered = o.Trace.RPS[e]
		}
		for nextArrival < len(reqs) && reqs[nextArrival].ArriveSec < t1 {
			queue = append(queue, nextArrival)
			nextArrival++
		}
		if e >= epochs && len(queue) == 0 {
			break
		}
		if e >= epochs+drainCapEpochs {
			unserved = uint64(len(queue))
			sloViol += unserved
			deadlineMiss += unserved
			break
		}

		state := governor.EpochState{
			Epoch: e, EpochSec: o.Trace.EpochSec,
			OfferedRPS: offered, QueueLen: len(queue),
			Utilization: utilization,
			CMOSCores:   nC, TFETCores: nT,
			AwakeCMOS: awakeC, AwakeTFET: awakeT,
			LeakWCMOS: leakC, LeakWTFET: leakT,
			BudgetW:    o.BudgetW,
			NominalGHz: nominal.FrequencyGHz, MinGHz: minFreqGHz, MaxGHz: maxGHz,
			Workloads: loads,
		}
		// The power budget is a hard constraint of the machine, not
		// advice: enforce it on every policy's decision (budget-aware
		// policies anticipate it and are unaffected).
		d := clampBudget(state, o.Policy.Decide(state))

		// Clamp the decision to the physical machine.
		kC := clampInt(d.AwakeCMOS, 0, nC)
		kT := clampInt(d.AwakeTFET, 0, nT)
		if kC+kT == 0 {
			if nC > 0 {
				kC = 1
			} else {
				kT = 1
			}
		}
		f := d.FreqGHz
		if f <= 0 {
			f = nominal.FrequencyGHz
		}
		f = math.Min(math.Max(f, minFreqGHz), maxGHz)
		pair, err := dvfs.PairFor(f)
		if err != nil {
			pair, f = nominal, nominal.FrequencyGHz
		}
		rateScale := f / device.NominalFrequencyGHz
		scC := device.ScaleFrom(nominal.VCMOS, pair.VCMOS)
		scT := device.ScaleFrom(nominal.VTFET, pair.VTFET)

		if o.Obs.EventSink() != nil && (kC != awakeC || kT != awakeT) {
			o.Obs.AddEvent(obs.Event{
				T: t0, Cat: "traffic", Name: o.Policy.Name() + " wake/sleep",
				Args: map[string]float64{"cmos": float64(kC), "tfet": float64(kT), "freq_ghz": f},
			})
		}
		awakeC, awakeT = kC, kT

		epochLeak := (float64(kC)*leakC*scC.Leakage + float64(kT)*leakT*scT.Leakage) * o.Trace.EpochSec
		leakJ += epochLeak
		awakeSecC += float64(kC) * o.Trace.EpochSec
		awakeSecT += float64(kT) * o.Trace.EpochSec
		freqSum += f
		ranEpochs++

		// Serve the queue FIFO until the epoch's horizon.
		busySec := 0.0
		epochDyn := 0.0
		var epochLats []float64
		for len(queue) > 0 {
			req := reqs[queue[0]]
			w := loads[req.Workload]
			svcC := w.CMOS.ServiceSec / rateScale
			svcT := w.TFET.ServiceSec / rateScale

			// pick returns the earliest-finishing core of a class.
			pick := func(lo, hi int, svc float64) (int, float64, float64) {
				best, bestStart, bestFinish := -1, 0.0, math.Inf(1)
				for c := lo; c < hi; c++ {
					start := math.Max(nextFree[c], req.ArriveSec)
					if fin := start + svc; fin < bestFinish {
						best, bestStart, bestFinish = c, start, fin
					}
				}
				return best, bestStart, bestFinish
			}
			core, start, finish := -1, 0.0, 0.0
			isTFET := false
			if cl, ok := d.Affinity[w.Name]; ok {
				// Honour the affinity when the preferred class can start
				// the request within half the SLO; otherwise fall back
				// to the fleet-wide best so placement never costs the
				// objective.
				var c int
				var s, fin float64
				if cl == governor.ClassTFET {
					c, s, fin = pick(nC, nC+kT, svcT)
				} else {
					c, s, fin = pick(0, kC, svcC)
				}
				if c >= 0 && s <= req.ArriveSec+o.SLOSec/2 {
					core, start, finish = c, s, fin
					isTFET = cl == governor.ClassTFET
				}
			}
			if core < 0 {
				cc, cs, cf := pick(0, kC, svcC)
				tc, ts, tf := pick(nC, nC+kT, svcT)
				if cc >= 0 && (tc < 0 || cf <= tf) {
					core, start, finish = cc, cs, cf
				} else {
					core, start, finish, isTFET = tc, ts, tf, true
				}
			}
			if start >= t1 {
				break // carry the rest of the queue into the next epoch
			}
			nextFree[core] = finish
			lat := finish - req.ArriveSec
			latencies = append(latencies, lat)
			if ser != nil {
				epochLats = append(epochLats, lat)
			}
			if lat > o.SLOSec {
				sloViol++
			}
			if lat > o.DeadlineSec {
				deadlineMiss++
			}
			completed++
			if isTFET {
				epochDyn += w.TFET.DynJ * scT.Dynamic
				busySec += svcT
			} else {
				epochDyn += w.CMOS.DynJ * scC.Dynamic
				busySec += svcC
			}
			if finish > simEnd {
				simEnd = finish
			}
			queue = queue[1:]
		}
		dynJ += epochDyn
		utilization = math.Min(1, busySec/(float64(kC+kT)*o.Trace.EpochSec))

		if ser != nil {
			ser.Series("traffic.rps").Append(t0, offered)
			ser.Series("traffic.queue").Append(t0, float64(len(queue)))
			ser.Series("traffic.awake_cmos").Append(t0, float64(kC))
			ser.Series("traffic.awake_tfet").Append(t0, float64(kT))
			ser.Series("traffic.freq_ghz").Append(t0, f)
			ser.Series("traffic.watts").Append(t0, (epochLeak+epochDyn)/o.Trace.EpochSec)
			sort.Float64s(epochLats)
			ser.Series("traffic.p99_ms").Append(t0, quantile(epochLats, 0.99)*1e3)
		}
	}

	sort.Float64s(latencies)
	res := Result{
		Scenario: o.SoC.Name() + "+" + o.Policy.Name(),
		Mix:      o.SoC.Name(), Policy: o.Policy.Name(),
		Trace: o.Trace.Name, Seed: o.Seed,
		Epochs: epochs, DrainEpochs: ranEpochs - min(ranEpochs, epochs),
		EpochSec: o.Trace.EpochSec, ReqInstr: o.ReqInstr,
		SLOSec: o.SLOSec, DeadlineSec: o.DeadlineSec, BudgetW: o.BudgetW,
		Requests: uint64(len(reqs)), Completed: completed, Unserved: unserved,
		SLOViolations: sloViol, DeadlineMisses: deadlineMiss,
		P50Sec: quantile(latencies, 0.50), P95Sec: quantile(latencies, 0.95),
		P99Sec: quantile(latencies, 0.99),
		DynJ:   dynJ, LeakJ: leakJ,
	}
	if n := len(latencies); n > 0 {
		sum := 0.0
		for _, l := range latencies {
			sum += l
		}
		res.MeanSec = sum / float64(n)
		res.MaxSec = latencies[n-1]
	}
	res.SimSec = math.Max(o.Trace.DurationSec(), simEnd)
	if completed > 0 {
		res.EnergyPerReqJ = (dynJ + leakJ) / float64(completed)
	}
	if res.SimSec > 0 {
		res.AvgWatts = (dynJ + leakJ) / res.SimSec
	}
	if ranEpochs > 0 {
		span := float64(ranEpochs) * o.Trace.EpochSec
		res.AvgAwakeCMOS = awakeSecC / span
		res.AvgAwakeTFET = awakeSecT / span
		res.AvgFreqGHz = freqSum / float64(ranEpochs)
	}

	if reg := o.Obs.Reg(); reg != nil {
		reg.Counter("traffic.requests_total").Add(res.Requests)
		reg.Counter("traffic.completed_total").Add(completed)
		reg.Counter("traffic.slo_violations_total").Add(sloViol)
		reg.Counter("traffic.deadline_misses_total").Add(deadlineMiss)
		reg.Counter("traffic.epochs_total").Add(uint64(ranEpochs))
	}
	return res, nil
}

// quantile returns the nearest-rank q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q*float64(len(sorted)-1) + 0.5)
	return sorted[idx]
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

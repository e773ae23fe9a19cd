package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"hetcore/internal/engine"
	"hetcore/internal/soc"
	"hetcore/internal/trace"
	"hetcore/internal/traffic"
)

// Traffic scenarios as a run plan. Serving one scenario needs the
// per-workload service stats — the 1-core component runs of
// soc.CoreRuns for each workload of the fixed 14-entry mix, the exact
// socComponentKey entries the SoC search already caches — and then one
// simulation. The component runs go through the engine first (memoized,
// disk-cached, shared with soc); each <mix>+<policy> scenario is then
// its own engine job whose closure simulates over the pre-measured
// services. Stock scenarios (synthetic
// trace, default knobs) carry stock keys a remote daemon can resolve by
// re-measuring; tweaked knobs and file traces move to Variant keys,
// which stay local.

// TrafficKnobs are the simulation parameters beyond the engine key's
// (scenario, trace, seed, instr). Zero values mean the traffic package
// defaults, which is what stock keys pin.
type TrafficKnobs struct {
	SLOSec   float64
	BudgetW  float64
	ReqInstr uint64
}

func (k TrafficKnobs) isDefault() bool {
	return k.SLOSec == 0 && k.BudgetW == 0 && k.ReqInstr == 0
}

// trafficVariant renders the non-default knobs (and, for file traces,
// the curve content) into the engine key's Variant field. Stock runs
// return "" and keep the remote-resolvable key shape.
func trafficVariant(tr traffic.Trace, fileTrace bool, k TrafficKnobs) string {
	v := ""
	if !k.isDefault() {
		v = fmt.Sprintf("slo=%g;budget=%g;req=%d", k.SLOSec, k.BudgetW, k.ReqInstr)
	}
	if fileTrace {
		h := sha256.New()
		fmt.Fprintf(h, "%g\n%v\n", tr.EpochSec, tr.RPS)
		if v != "" {
			v += ";"
		}
		v += "curve=" + hex.EncodeToString(h.Sum(nil))[:12]
	}
	return v
}

// trafficServices measures the fixed mix's service stats through the
// engine: per workload, the same 1-core component runs the SoC search
// uses (soc.CoreRuns), reduced by traffic.ServiceOf.
func trafficServices(opts Options) ([]traffic.Service, error) {
	wls := traffic.MixWorkloads()
	profs := make([]trace.Profile, len(wls))
	for i, name := range wls {
		var err error
		if profs[i], err = trace.CPUWorkload(name); err != nil {
			return nil, err
		}
	}
	runs, err := soc.CoreRuns(profs, opts.Obs, opts.simulateCPU)
	if err != nil {
		return nil, err
	}
	services := make([]traffic.Service, len(wls))
	for i := range wls {
		if services[i], err = traffic.ServiceOf(runs[2*i], runs[2*i+1]); err != nil {
			return nil, err
		}
	}
	return services, nil
}

// TrafficReport evaluates the scenario matrix (mixes × policies) on one
// trace, one engine job per scenario, and returns the sorted report.
func TrafficReport(opts Options, tr traffic.Trace, fileTrace bool, mixes, policies []string, knobs TrafficKnobs) (*traffic.Report, error) {
	services, err := trafficServices(opts)
	if err != nil {
		return nil, err
	}
	variant := trafficVariant(tr, fileTrace, knobs)
	var jobs []engine.Job
	for _, m := range mixes {
		mix, err := soc.ParseConfig(m)
		if err != nil {
			return nil, err
		}
		for _, pn := range policies {
			policy, err := traffic.PolicyByName(pn)
			if err != nil {
				return nil, err
			}
			mix, policy := mix, policy
			jobs = append(jobs, engine.Job{
				Key: engine.Key{Device: "traffic", Config: traffic.ScenarioName(mix, policy.Name()),
					Workload: tr.Name, Seed: opts.Seed, Instr: opts.Instructions, Variant: variant},
				Run: func() (any, error) {
					wallStart := time.Now()
					res, err := traffic.Simulate(traffic.SimOptions{
						SoC: mix, Policy: policy, Trace: tr, Services: services,
						Seed: opts.Seed, ReqInstr: knobs.ReqInstr,
						SLOSec: knobs.SLOSec, BudgetW: knobs.BudgetW,
						Obs: opts.Obs,
					})
					if err != nil {
						return nil, fmt.Errorf("harness: traffic %s+%s: %w", mix.Name(), policy.Name(), err)
					}
					opts.Obs.FinishRecord(res.Record(opts.Seed), wallStart, res.Completed*res.ReqInstr)
					return res, nil
				},
			})
		}
	}
	outs, err := opts.engine().RunAll(jobs)
	if err != nil {
		return nil, err
	}
	rep := &traffic.Report{Schema: traffic.SchemaVersion, Trace: tr.Name, Seed: opts.Seed}
	for _, out := range outs {
		rep.Scenarios = append(rep.Scenarios, out.(traffic.Result))
	}
	if len(rep.Scenarios) > 0 {
		rep.SLOMS = rep.Scenarios[0].SLOSec * 1e3
	}
	rep.Sort()
	return rep, nil
}

// TrafficTable renders scenario results as a harness table (the traffic
// CLI shares it with the registry experiments).
func TrafficTable(id, title, notes string, results []traffic.Result) Table {
	rows := make([]Row, len(results))
	for i, r := range results {
		rows[i] = Row{Label: r.Scenario + "/" + r.Trace, Values: []float64{
			float64(r.Requests),
			r.EnergyPerReqJ * 1e3,
			r.P50Sec * 1e3, r.P99Sec * 1e3,
			float64(r.SLOViolations), float64(r.DeadlineMisses),
			r.AvgWatts,
			r.AvgAwakeCMOS, r.AvgAwakeTFET, r.AvgFreqGHz,
		}}
	}
	return Table{
		ID: id, Title: title,
		Columns: []string{"requests", "mj_per_req", "p50_ms", "p99_ms",
			"slo_viol", "dl_miss", "avg_w", "awake_cmos", "awake_tfet", "avg_ghz"},
		Rows:  rows,
		Notes: notes,
	}
}

// Traffic is the registry entry: the default mixes under every policy on
// the diurnal trace.
func Traffic(opts Options) (Table, error) {
	tr := traffic.Diurnal()
	rep, err := TrafficReport(opts, tr, false, traffic.DefaultMixes, traffic.PolicyNames(), TrafficKnobs{})
	if err != nil {
		return Table{}, err
	}
	return TrafficTable("traffic",
		"Diurnal traffic: core mixes × scheduling policies",
		fmt.Sprintf("Trace %s (%d epochs, peak %.0f rps); SLO %.0f ms. Energy per request includes leakage of every awake core.",
			tr.Name, len(tr.RPS), tr.PeakRPS(), rep.SLOMS),
		rep.Scenarios), nil
}

// TrafficPolicies is the policy ablation: the hetero mix under every
// policy, across all three synthetic traces.
func TrafficPolicies(opts Options) (Table, error) {
	var all []traffic.Result
	for _, tn := range traffic.TraceNames() {
		tr, err := traffic.TraceByName(tn)
		if err != nil {
			return Table{}, err
		}
		rep, err := TrafficReport(opts, tr, false, []string{"c4t4g0"}, traffic.PolicyNames(), TrafficKnobs{})
		if err != nil {
			return Table{}, err
		}
		all = append(all, rep.Scenarios...)
	}
	return TrafficTable("traffic_policies",
		"Scheduling-policy ablation on c4t4g0 across synthetic traces",
		"One row per (policy, trace); the cache-aware policy should dominate naive on energy per request at equal SLO compliance.",
		all), nil
}

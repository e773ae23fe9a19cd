// diurnal_service serves a day of traffic on a heterogeneous SoC and
// compares scheduling policies on energy per request. The service stats
// of the 14-workload mix come from one 1-core BaseCMOS run per workload,
// with the BaseTFET class priced from it; then the fleet simulator
// steps a c4t4g0 mix through the synthetic diurnal RPS curve under each
// policy: naive keeps everything awake at nominal, util wakes TFET
// cores first to a utilization target, and cacheaware splits the mix at
// the median L2 MPKI — cache-friendly parallel programs go to the
// low-leakage TFET cores, serial or cache-thrashing programs to the
// fast CMOS cores.
//
// Run with: go run ./examples/diurnal_service
package main

import (
	"fmt"
	"log"

	"hetcore/internal/soc"
	"hetcore/internal/traffic"
)

func main() {
	// One short component run per (workload, core class); the harness
	// path caches these through the engine, the library path just runs
	// them.
	services, err := traffic.MeasureServices(traffic.MixWorkloads(), 1, 60_000)
	if err != nil {
		log.Fatal(err)
	}

	mix, err := soc.ParseConfig("c4t4g0")
	if err != nil {
		log.Fatal(err)
	}
	tr := traffic.Diurnal()
	fmt.Printf("Serving trace %q (%d epochs of %.0f s, peak %.0f rps) on %s:\n\n",
		tr.Name, len(tr.RPS), tr.EpochSec, tr.PeakRPS(), mix.Name())

	fmt.Printf("%-12s %10s %10s %8s %8s %10s %10s %8s\n",
		"policy", "requests", "uj_per_req", "p50_ms", "p99_ms", "slo_viol", "avg_awake", "avg_ghz")
	var naive, aware traffic.Result
	for _, policy := range traffic.Policies() {
		res, err := traffic.Simulate(traffic.SimOptions{
			SoC: mix, Policy: policy, Trace: tr, Services: services, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		switch policy.Name() {
		case "naive":
			naive = res
		case "cacheaware":
			aware = res
		}
		fmt.Printf("%-12s %10d %10.2f %8.2f %8.2f %10d %10.1f %8.2f\n",
			res.Policy, res.Requests, res.EnergyPerReqJ*1e6,
			res.P50Sec*1e3, res.P99Sec*1e3, res.SLOViolations,
			res.AvgAwakeCMOS+res.AvgAwakeTFET, res.AvgFreqGHz)
	}

	fmt.Printf("\ncacheaware serves the same day at %.0f%% of naive's energy per\n",
		100*aware.EnergyPerReqJ/naive.EnergyPerReqJ)
	fmt.Println("request: through the trough it parks the CMOS cores (leakage is the")
	fmt.Println("flat tax of an awake fleet) and keeps the cache-friendly programs on")
	fmt.Println("TFET cores, which finish the same work at a fraction of the dynamic")
	fmt.Println("energy. SLO compliance is unchanged — the wins come from sleeping and")
	fmt.Println("placement, not from slowing the service down.")
}

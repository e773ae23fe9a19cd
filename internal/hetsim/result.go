package hetsim

// Result is the surface every device measurement shares, whatever the
// device kind. Code that handles results of any kind (hetcore sweep)
// reads them through it; the concrete types (CPUResult, GPUResult,
// HeteroCMPResult, soc.Result, traffic.Result) stay available for
// device-specific fields behind a type assertion.
type Result interface {
	// DeviceKind is the engine-key device field: "cpu", "gpu", "cmp",
	// "soc", "traffic".
	DeviceKind() string
	// ConfigName names the simulated configuration (Table IV name, or a
	// composed SoC mix like "c2t4g8").
	ConfigName() string
	// WorkloadName names the workload or kernel.
	WorkloadName() string
	// Seconds is the simulated execution time.
	Seconds() float64
	// TotalEnergyJ is the total modelled energy in joules (DRAM excluded,
	// matching the paper's scope).
	TotalEnergyJ() float64
	// ED is the energy-delay product (J·s); ED2 the energy-delay².
	ED() float64
	ED2() float64
}

package hetsim

// Result is the surface every device measurement shares, whatever the
// device kind. Code that handles results of any kind (hetcore sweep)
// reads them through it; the concrete types (CPUResult, GPUResult,
// HeteroCMPResult, soc.Result, traffic.Result) stay available for
// device-specific fields behind a type assertion.
type Result interface {
	// Seconds is the simulated execution time.
	Seconds() float64
	// TotalEnergyJ is the total modelled energy in joules (DRAM excluded,
	// matching the paper's scope).
	TotalEnergyJ() float64
	// ED2 is the energy-delay² product (J·s²).
	ED2() float64
}

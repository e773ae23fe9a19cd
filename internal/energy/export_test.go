package energy

// AccelTable exposes the accelerator catalog to the external test
// package, which checks it against the GPU kernel catalog.
var AccelTable = accelTable

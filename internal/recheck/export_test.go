package recheck

// RunMonitor exposes run to the external tests, so one monitor can be
// shared between a recheck and other callers.
var RunMonitor = run

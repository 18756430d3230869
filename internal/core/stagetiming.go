package core

// Stage timing: per-batch decode/eval attribution for the flight
// recorder. The fleet ingest path samples batches; for a sampled batch
// it brackets the PushFrames call with BeginStageTiming/EndStageTiming
// and reads back how the batch's wall time split between frame decode
// and rule evaluation, plus a per-rule evaluation breakdown.
//
// The design keeps core free of any flight-recorder dependency (the
// engine stays a pure library; the caller owns where the numbers go)
// and keeps the unsampled hot path untouched: timing is a plain bool
// checked per frame, and Begin/End allocate nothing, so the pinned
// zero-allocation PushFrame contract holds with timing both off and on.

// EnableStageTiming arms per-batch stage attribution on this session.
// nRules sizes the per-rule evaluation accumulator and must match the
// rule-set order the stream checker evaluates (the same contract as
// NewMetrics). Call once at session setup, before the first push;
// timing stays dormant (and free beyond one predicted branch per
// frame) until BeginStageTiming.
func (o *OnlineMonitor) EnableStageTiming(nRules int) {
	o.ruleNanos = make([]int64, nRules)
}

// BeginStageTiming starts attribution for the next batch: subsequent
// pushes accumulate decode and evaluation time until EndStageTiming.
// Allocation-free. A session without EnableStageTiming still
// accumulates the decode/eval split, just no per-rule breakdown.
func (o *OnlineMonitor) BeginStageTiming() {
	o.timing = true
	o.decodeNanos = 0
	o.evalNanos = 0
	for i := range o.ruleNanos {
		o.ruleNanos[i] = 0
	}
}

// EndStageTiming stops attribution and returns the batch's accumulated
// decode and evaluation nanoseconds plus the per-rule evaluation
// breakdown (nil unless EnableStageTiming was called). The returned
// slice is the session's internal accumulator, valid only until the
// next BeginStageTiming — copy out values that must survive.
func (o *OnlineMonitor) EndStageTiming() (decodeNanos, evalNanos int64, perRule []int64) {
	o.timing = false
	return o.decodeNanos, o.evalNanos, o.ruleNanos
}

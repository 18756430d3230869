package core

import "time"

// Timed calls: one mechanism times evaluation for both the step-latency
// metrics and the flight recorder. A timed call is one PushFrame,
// PushFrames or Close call run with the stream checker's per-rule
// timing armed (speclang.StreamChecker.Time), so it times the very
// blocks production runs, and since every call flushes before it
// returns, exactly the blocks its own steps ran in. An untimed call
// reads no clock.
//
// A call is timed when BeginStageTiming armed it for the flight
// recorder, or when the metrics sample is due: on the first call, then
// once at least stepSampleEvery steps have been finalized since the
// last timed call. A due call that finalizes no step stays due.
//
// The design keeps core free of any flight-recorder dependency (the
// engine stays a pure library; the caller owns where the numbers go),
// and none of it allocates, so the pinned zero-allocation PushFrame
// contract holds with timing both off and armed.

// BeginStageTiming times the calls up to EndStageTiming, whether or not
// the metrics sample is due. Allocation-free.
func (o *OnlineMonitor) BeginStageTiming() {
	o.stage = true
	o.callNanos = 0
	clear(o.ruleNanos)
}

// EndStageTiming stops stage timing and returns how the last timed
// call's wall time split between decode (everything but rule
// evaluation: frame lookup and latch, step bookkeeping and event
// conversion) and evaluation, plus the per-rule evaluation breakdown
// in rule-set order, which sums to eval. The returned slice is the
// session's accumulator, valid only until the next push or Close call —
// copy out values that must survive.
func (o *OnlineMonitor) EndStageTiming() (decode, eval int64, perRule []int64) {
	o.stage = false
	for _, n := range o.ruleNanos {
		eval += n
	}
	return o.callNanos - eval, eval, o.ruleNanos
}

// beginCall arms the checker's rule timing if this call is timed and
// returns its start time; an untimed call returns the zero time.
func (o *OnlineMonitor) beginCall() time.Time {
	if !o.stage && (o.met == nil || o.untimed < stepSampleEvery) {
		return time.Time{}
	}
	clear(o.ruleNanos)
	_ = o.sc.Time(o.ruleNanos) // sized by NumRules in Online
	return time.Now()
}

// endCall closes the call beginCall opened: a timed call disarms the
// checker, records its wall time and, if it finalized steps, feeds the
// metrics; then the call's counts are published.
func (o *OnlineMonitor) endCall(t0 time.Time) {
	if t0.IsZero() {
		o.untimed += o.nSteps
	} else {
		o.callNanos = int64(time.Since(t0))
		_ = o.sc.Time(nil)
		if o.met != nil && o.nSteps > 0 {
			o.met.observe(o.ruleNanos, o.nSteps)
			o.untimed = 0
		}
	}
	o.publish()
}

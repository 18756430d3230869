package core

import (
	"testing"

	"cpsmon/internal/can"
	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
)

// TestStageTimingAttribution checks the per-batch decode/eval split:
// both move while timing is armed, the per-rule breakdown sums to no
// more than the whole-checker eval time, and a batch pushed with
// timing off leaves the accumulators alone.
func TestStageTimingAttribution(t *testing.T) {
	log := buildLog(t, 400, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	rules := m.RuleNames()
	om.Instrument(NewMetrics(obs.NewRegistry(), "strict", rules))

	frames := log.Frames()
	half := len(frames) / 2

	om.BeginStageTiming()
	if _, _, err := om.PushFrames(frames[:half]); err != nil {
		t.Fatalf("PushFrames: %v", err)
	}
	decode, eval, perRule := om.EndStageTiming()
	if decode <= 0 || eval <= 0 {
		t.Fatalf("timed batch: decode=%dns eval=%dns, want both positive", decode, eval)
	}
	if len(perRule) != len(rules) {
		t.Fatalf("per-rule breakdown has %d entries, want %d", len(perRule), len(rules))
	}
	var ruleSum int64
	for _, n := range perRule {
		if n <= 0 {
			t.Errorf("per-rule nanos = %v, want all positive", perRule)
			break
		}
		ruleSum += n
	}
	if ruleSum > eval {
		t.Errorf("per-rule sum %dns exceeds whole-checker eval %dns", ruleSum, eval)
	}

	// Timing off: the next batch must not disturb the accumulators. The
	// timed batch finalized steps, so the metrics sample is not due
	// either and the batch is untimed.
	if _, _, err := om.PushFrames(frames[half:]); err != nil {
		t.Fatalf("PushFrames: %v", err)
	}
	d2, e2, _ := om.EndStageTiming()
	if d2 != decode || e2 != eval {
		t.Errorf("untimed batch moved accumulators: decode %d→%d eval %d→%d", decode, d2, eval, e2)
	}
}

// TestOnlinePushFrameAllocFreeWithStageTiming pins that an armed
// stage-timing batch keeps the steady-state zero-allocation contract:
// the flight recorder's per-batch attribution must be free to sample
// without moving the pinned hot-path costs.
func TestOnlinePushFrameAllocFreeWithStageTiming(t *testing.T) {
	log := buildLog(t, 4000, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	rules := m.RuleNames()
	om.Instrument(NewMetrics(obs.NewRegistry(), "strict", rules))
	frames := log.Frames()
	warm := 1000
	if len(frames) < warm+1500 {
		t.Fatalf("fixture too short: %d frames", len(frames))
	}
	for _, f := range frames[:warm] {
		if _, err := om.PushFrame(f); err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(1000, func() {
		om.BeginStageTiming()
		if _, err := om.PushFrame(frames[next]); err != nil {
			t.Fatal(err)
		}
		om.EndStageTiming()
		next++
	})
	if allocs != 0 {
		t.Fatalf("stage-timed PushFrame allocates %.2f times per frame, want 0", allocs)
	}
}

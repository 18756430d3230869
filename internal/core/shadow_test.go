package core_test

import (
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
)

func strictMonitor(t *testing.T) *core.Monitor {
	t.Helper()
	rs, err := rules.Strict()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func relaxedMonitor(t *testing.T) *core.Monitor {
	t.Helper()
	rs, err := rules.Relaxed()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestShadowIdenticalSpecNeverDiverges is the determinism argument
// from DESIGN.md §16 as a test: a shadow compiled from the same spec,
// fed the same batches in the same order, must agree with the primary
// on every single batch — the shadow comparison's false-positive rate
// is exactly zero.
func TestShadowIdenticalSpecNeverDiverges(t *testing.T) {
	db := sigdb.Vehicle()
	frames := fixtureLog(t, 1500).Frames()

	primary, err := strictMonitor(t).Online(db)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := strictMonitor(t).Shadow(db)
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()

	scratch := make(map[string]int)
	var sawEvents bool
	const batch = 64
	for off := 0; off < len(frames); off += batch {
		end := off + batch
		if end > len(frames) {
			end = len(frames)
		}
		run := frames[off:end]
		pevs, _, err := primary.PushFrames(run)
		if err != nil {
			t.Fatalf("primary PushFrames: %v", err)
		}
		if err := shadow.Push(run); err != nil {
			t.Fatalf("shadow Push: %v", err)
		}
		if len(pevs) > 0 {
			sawEvents = true
		}
		if div := core.ShadowDivergence(scratch, pevs, shadow.BatchEvents()); div != nil {
			t.Fatalf("identical specs diverged at frame %d: %v", off, div)
		}
		shadow.EndBatch()
	}
	if !sawEvents {
		t.Fatal("fixture produced no events; zero-divergence result would be vacuous")
	}
	st, sok := shadow.ShadowClock()
	if !sok || st != frames[len(frames)-1].Time {
		t.Fatalf("shadow clock %v/%v != last frame time %v", st, sok, frames[len(frames)-1].Time)
	}
}

// divergenceFixtureLog synthesizes a capture that trips exactly the
// rules the relaxed spec loosened: the ego cruises 0.25 m/s above the
// set speed — inside relaxed Rule3/Rule4's 0.5 m/s margin but above
// strict's hard threshold — while torque ramps for longer than Rule4's
// 400 ms window, and brake applications open with a single-cycle
// positive decel blip that strict Rule5 flags instantly but relaxed
// forgives within 20 ms.
func divergenceFixtureLog(t testing.TB, ticks int) []can.Frame {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	for tick := 0; tick < ticks; tick++ {
		_ = bus.Set(sigdb.SigVelocity, 25.25)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		_ = bus.Set(sigdb.SigVehicleAhead, 0)
		_ = bus.Set(sigdb.SigSelHeadway, 2)
		// Ramp +2 N·m per cycle for 60 cycles, then release: delta
		// stays positive for 600 ms straight, blowing strict Rule4's
		// 400 ms eventually-window while relaxed's margined antecedent
		// never arms.
		_ = bus.Set(sigdb.SigRequestedTorque, float64(2*(tick%60)))
		// Every 100 cycles, a braking episode whose first cycle carries
		// a positive decel blip.
		phase := tick % 100
		if phase >= 80 && phase < 90 {
			_ = bus.Set(sigdb.SigBrakeRequested, 1)
			if phase == 80 {
				_ = bus.Set(sigdb.SigRequestedDecel, 0.5)
			} else {
				_ = bus.Set(sigdb.SigRequestedDecel, -1)
			}
		} else {
			_ = bus.Set(sigdb.SigBrakeRequested, 0)
			_ = bus.Set(sigdb.SigRequestedDecel, 0)
		}
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	return bus.Log().Frames()
}

// TestShadowStrictVsRelaxedDiverges drives a strict primary with a
// relaxed shadow over a fixture that trips strict-only rules, and
// requires the comparison to (a) flag at least one divergent batch and
// (b) attribute it to named rules with nonzero count deltas.
func TestShadowStrictVsRelaxedDiverges(t *testing.T) {
	db := sigdb.Vehicle()
	frames := divergenceFixtureLog(t, 2000)

	primary, err := strictMonitor(t).Online(db)
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := relaxedMonitor(t).Shadow(db)
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()

	scratch := make(map[string]int)
	divergent := 0
	rulesSeen := map[string]bool{}
	const batch = 64
	for off := 0; off < len(frames); off += batch {
		end := off + batch
		if end > len(frames) {
			end = len(frames)
		}
		run := frames[off:end]
		pevs, _, err := primary.PushFrames(run)
		if err != nil {
			t.Fatalf("primary PushFrames: %v", err)
		}
		if err := shadow.Push(run); err != nil {
			t.Fatalf("shadow Push: %v", err)
		}
		if div := core.ShadowDivergence(scratch, pevs, shadow.BatchEvents()); div != nil {
			divergent++
			for rule, delta := range div {
				if delta == 0 {
					t.Fatalf("divergence map carries zero delta for %q", rule)
				}
				rulesSeen[rule] = true
			}
		}
		shadow.EndBatch()
	}
	if divergent == 0 {
		t.Fatal("strict vs relaxed never diverged; fixture or comparison is broken")
	}
	named := 0
	for rule := range rulesSeen {
		if rule != "" {
			named++
		}
	}
	if named == 0 {
		t.Fatalf("divergences never named a rule: %v", rulesSeen)
	}
}

// TestShadowPromoteTransfersOwnership checks the promote handshake: the
// surrendered monitor keeps working as a primary (tail events emerge
// from its Close), and closing the spent shadow afterwards is a no-op
// rather than a double-close of the surrendered monitor.
func TestShadowPromoteTransfersOwnership(t *testing.T) {
	db := sigdb.Vehicle()
	frames := fixtureLog(t, 800).Frames()

	shadow, err := strictMonitor(t).Shadow(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Push(frames); err != nil {
		t.Fatal(err)
	}
	adopted := shadow.Promote()
	if adopted == nil {
		t.Fatal("Promote returned nil monitor")
	}
	shadow.Close() // must not close the adopted monitor

	// The adopted monitor is live: it accepts the rest of the stream
	// (empty here) and closes cleanly, producing its end-of-stream
	// events exactly once.
	if _, err := adopted.Close(); err != nil {
		t.Fatalf("adopted monitor Close: %v", err)
	}
	if _, ok := shadow.ShadowClock(); ok {
		t.Fatal("spent shadow still reports a clock")
	}
}

// TestBatchSignatureSensitivity pins the signature to be order- and
// content-sensitive: permuted events and shifted times must hash
// differently, equal streams equally.
func TestBatchSignatureSensitivity(t *testing.T) {
	a := []core.OnlineEvent{
		{Rule: "Rule1", Time: 10 * time.Millisecond},
		{Rule: "Rule2", Time: 20 * time.Millisecond},
	}
	b := []core.OnlineEvent{
		{Rule: "Rule2", Time: 20 * time.Millisecond},
		{Rule: "Rule1", Time: 10 * time.Millisecond},
	}
	c := []core.OnlineEvent{
		{Rule: "Rule1", Time: 10 * time.Millisecond},
		{Rule: "Rule2", Time: 21 * time.Millisecond},
	}
	na, sa := core.BatchSignature(a)
	nb, sb := core.BatchSignature(b)
	nc, sc := core.BatchSignature(c)
	if na != 2 || nb != 2 || nc != 2 {
		t.Fatalf("counts: %d %d %d", na, nb, nc)
	}
	if sa == sb {
		t.Fatal("signature ignores event order")
	}
	if sa == sc {
		t.Fatal("signature ignores event time")
	}
	na2, sa2 := core.BatchSignature(append([]core.OnlineEvent(nil), a...))
	if na2 != na || sa2 != sa {
		t.Fatal("signature not stable for equal input")
	}

	// Same per-rule counts, different times: ShadowDivergence must not
	// report agreement.
	if div := core.ShadowDivergence(map[string]int{}, a, c); div == nil {
		t.Fatal("count-equal time-shifted batches reported as agreement")
	}
	if div := core.ShadowDivergence(map[string]int{}, a, a); div != nil {
		t.Fatalf("identical batches reported divergence: %v", div)
	}
}

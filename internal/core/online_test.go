package core

import (
	"math"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
)

// buildLog broadcasts the given per-tick setter over the vehicle bus
// and returns the capture.
func buildLog(t *testing.T, ticks int, set func(tick int, bus *can.Bus)) *can.Log {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	bus := can.NewBus(db, sched)
	for tick := 0; tick < ticks; tick++ {
		if set != nil {
			set(tick, bus)
		}
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	return bus.Log()
}

// onlineViolations replays a log through the online monitor and
// collects closed violations per rule.
func onlineViolations(t *testing.T, m *Monitor, log *can.Log) map[string][]OnlineEvent {
	t.Helper()
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	out := make(map[string][]OnlineEvent)
	collect := func(evs []OnlineEvent) {
		for _, e := range evs {
			if e.Kind == speclang.ViolationEnd {
				out[e.Rule] = append(out[e.Rule], e)
			}
		}
	}
	for _, f := range log.Frames() {
		evs, err := om.PushFrame(f)
		if err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
		collect(evs)
	}
	evs, err := om.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	collect(evs)
	return out
}

// requireOnlineOfflineMatch asserts that the streaming monitor
// reproduces the offline check exactly, including triage classes. The
// offline side is CheckTrace over the decoded log, not CheckLog: CheckLog
// replays frames through an online session itself, while CheckTrace
// still assigns frames to steps independently, through trace.Align.
func requireOnlineOfflineMatch(t *testing.T, m *Monitor, log *can.Log) {
	t.Helper()
	tr, err := trace.FromCANLog(log, sigdb.Vehicle())
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	offline, err := m.CheckTrace(tr)
	if err != nil {
		t.Fatalf("CheckTrace: %v", err)
	}
	online := onlineViolations(t, m, log)
	for _, rr := range offline.Rules {
		got := online[rr.Name()]
		if len(got) != len(rr.Result.Violations) {
			t.Fatalf("rule %s: online %d violations, offline %d\nonline: %+v\noffline: %+v",
				rr.Name(), len(got), len(rr.Result.Violations), got, rr.Result.Violations)
		}
		for i, want := range rr.Result.Violations {
			g := got[i].Violation
			if g.StartStep != want.StartStep || g.EndStep != want.EndStep || g.Msg != want.Msg {
				t.Fatalf("rule %s violation %d: online %+v, offline %+v", rr.Name(), i, g, want)
			}
			if g.Peak != want.Peak && !(math.IsInf(g.Peak, 1) && math.IsInf(want.Peak, 1)) {
				t.Fatalf("rule %s violation %d peak: online %v, offline %v", rr.Name(), i, g.Peak, want.Peak)
			}
			if got[i].Class != rr.Classes[i] {
				t.Fatalf("rule %s violation %d class: online %v, offline %v", rr.Name(), i, got[i].Class, rr.Classes[i])
			}
		}
	}
}

func testMonitor(t *testing.T) *Monitor {
	t.Helper()
	db := sigdb.Vehicle()
	rs := compileRules(t, `
spec Rule0 { assert ServiceACC -> !ACCEnabled }
spec DecelOK { severity RequestedDecel warmup 50ms assert BrakeRequested -> RequestedDecel <= 0.0 }
spec Slow4 { assert (Velocity > ACCSetSpeed) -> eventually[0:400ms](delta(RequestedTorque) <= 0.0) }
monitor Headway {
  let h = TargetRange / Velocity
  initial state Normal { when VehicleAhead && h < 1.0 => Low }
  state Low {
    when !VehicleAhead || h >= 1.0 => Normal
    after 5s => violate "not recovered"
  }
}`, db.SignalNames()...)
	m, err := New(Config{
		Rules: rs,
		Triage: map[string]Triage{
			"DecelOK": {TransientMax: 25 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestOnlineMatchesOfflineCleanTrace(t *testing.T) {
	log := buildLog(t, 200, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	requireOnlineOfflineMatch(t, testMonitor(t), log)
}

func TestOnlineMatchesOfflineWithViolations(t *testing.T) {
	log := buildLog(t, 1200, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		// Rule0 violation burst.
		if tick >= 100 && tick < 130 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
		}
		// A transient decel blip and a NaN stretch.
		switch {
		case tick == 300:
			_ = bus.Set(sigdb.SigBrakeRequested, 1)
			_ = bus.Set(sigdb.SigRequestedDecel, 0.12)
		case tick > 300 && tick < 360:
			_ = bus.Set(sigdb.SigBrakeRequested, 1)
			_ = bus.Set(sigdb.SigRequestedDecel, math.NaN())
		default:
			_ = bus.Set(sigdb.SigBrakeRequested, 0)
			_ = bus.Set(sigdb.SigRequestedDecel, 0)
		}
		// Sustained torque ramp above set speed (Slow4 + headway).
		if tick >= 500 && tick < 1100 {
			_ = bus.Set(sigdb.SigVelocity, 27)
			_ = bus.Set(sigdb.SigRequestedTorque, float64(tick))
			_ = bus.Set(sigdb.SigVehicleAhead, 1)
			_ = bus.Set(sigdb.SigTargetRange, 15)
		} else {
			_ = bus.Set(sigdb.SigVehicleAhead, 0)
			_ = bus.Set(sigdb.SigTargetRange, 0)
			_ = bus.Set(sigdb.SigRequestedTorque, 0)
		}
	})
	m := testMonitor(t)
	// Sanity: the offline report finds all three problem classes.
	rep, err := m.CheckLog(log, sigdb.Vehicle())
	if err != nil {
		t.Fatalf("CheckLog: %v", err)
	}
	if !rep.AnyViolated() {
		t.Fatal("synthetic log produced no violations")
	}
	requireOnlineOfflineMatch(t, m, log)
}

func TestOnlineEventLatency(t *testing.T) {
	// Rule0 has no temporal horizon: its Begin event must arrive on
	// the very next step boundary after the violating frame.
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	log := buildLog(t, 50, func(tick int, bus *can.Bus) {
		if tick >= 20 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
		}
		_ = bus.Set(sigdb.SigVelocity, 20)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	var beginFrameTime time.Duration = -1
	for _, f := range log.Frames() {
		evs, err := om.PushFrame(f)
		if err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
		for _, e := range evs {
			if e.Rule == "Rule0" && e.Kind == speclang.ViolationBegin && beginFrameTime < 0 {
				beginFrameTime = f.Time
				if e.Time != 200*time.Millisecond {
					t.Errorf("violation begins at %v, want 200ms", e.Time)
				}
			}
		}
	}
	if _, err := om.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if beginFrameTime < 0 {
		t.Fatal("no Rule0 begin event delivered during streaming")
	}
	if beginFrameTime > 220*time.Millisecond {
		t.Errorf("begin event delivered at frame time %v, want within two steps of 200ms", beginFrameTime)
	}
}

// TestOnlineTimestampContract pins PushFrame's documented ordering
// contract: equal timestamps are accepted (many frames share a capture
// instant on a broadcast bus), strictly decreasing ones are rejected,
// and a rejection leaves the session intact — the caller can drop the
// stale frame and keep streaming to an unchanged verdict.
func TestOnlineTimestampContract(t *testing.T) {
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	if _, err := om.PushFrame(can.Frame{Time: 50 * time.Millisecond, ID: sigdb.FrameRadar}); err != nil {
		t.Fatalf("PushFrame: %v", err)
	}
	// Equal timestamp: fine, repeatedly.
	for i := 0; i < 3; i++ {
		if _, err := om.PushFrame(can.Frame{Time: 50 * time.Millisecond, ID: sigdb.FramePedals}); err != nil {
			t.Fatalf("equal-timestamp frame %d rejected: %v", i, err)
		}
	}
	// Strictly earlier: rejected, every time it is retried.
	for i := 0; i < 2; i++ {
		if _, err := om.PushFrame(can.Frame{Time: 10 * time.Millisecond, ID: sigdb.FrameRadar}); err == nil {
			t.Fatal("out-of-order frame accepted")
		}
	}
	// The rejection did not corrupt the session: later frames still
	// stream, and equal-to-last remains acceptable after the error.
	if _, err := om.PushFrame(can.Frame{Time: 50 * time.Millisecond, ID: sigdb.FrameVehicleDyn}); err != nil {
		t.Fatalf("session unusable after rejection: %v", err)
	}
	if _, err := om.PushFrame(can.Frame{Time: 70 * time.Millisecond, ID: sigdb.FrameRadar}); err != nil {
		t.Fatalf("session unusable after rejection: %v", err)
	}
	if _, err := om.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOnlineRejectionMatchesDropAndContinue checks the "drop and keep
// pushing" recovery the contract promises: a trace streamed with stale
// frames interleaved (each rejected) yields byte-identical violations
// to the same trace without them.
func TestOnlineRejectionMatchesDropAndContinue(t *testing.T) {
	log := buildLog(t, 300, func(tick int, bus *can.Bus) {
		on := 0.0
		if tick >= 100 && tick < 150 {
			on = 1
		}
		_ = bus.Set(sigdb.SigServiceACC, on)
		_ = bus.Set(sigdb.SigACCEnabled, on)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	got := make(map[string][]OnlineEvent)
	collect := func(evs []OnlineEvent) {
		for _, e := range evs {
			if e.Kind == speclang.ViolationEnd {
				got[e.Rule] = append(got[e.Rule], e)
			}
		}
	}
	for i, f := range log.Frames() {
		if i > 0 && i%20 == 0 {
			stale := f
			stale.Time -= 30 * time.Millisecond
			if _, err := om.PushFrame(stale); err == nil {
				t.Fatal("stale frame accepted")
			}
		}
		evs, err := om.PushFrame(f)
		if err != nil {
			t.Fatalf("PushFrame after drop: %v", err)
		}
		collect(evs)
	}
	evs, err := om.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	collect(evs)

	clean := onlineViolations(t, m, log)
	if len(clean) == 0 {
		t.Fatal("synthetic burst produced no violations")
	}
	for rule, want := range clean {
		g := got[rule]
		if len(g) != len(want) {
			t.Fatalf("rule %s: %d violations with rejections interleaved, %d clean", rule, len(g), len(want))
		}
		for i := range want {
			a, b := g[i].Violation, want[i].Violation
			if a.StartStep != b.StartStep || a.EndStep != b.EndStep || a.Msg != b.Msg || g[i].Class != want[i].Class {
				t.Errorf("rule %s violation %d diverged after rejections: %+v vs %+v", rule, i, a, b)
			}
		}
	}
}

func TestOnlineIgnoresForeignFrames(t *testing.T) {
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	evs, err := om.PushFrame(can.Frame{Time: 0, ID: 0x7FF})
	if err != nil || evs != nil {
		t.Errorf("foreign frame: evs=%v err=%v", evs, err)
	}
	if _, err := om.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestOnlineLifecycleErrors(t *testing.T) {
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	if _, err := om.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := om.Close(); err == nil {
		t.Error("second Close accepted")
	}
	if _, err := om.PushFrame(can.Frame{}); err == nil {
		t.Error("PushFrame after Close accepted")
	}
}

func TestOnlineEmptyTrace(t *testing.T) {
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	evs, err := om.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, e := range evs {
		if e.Kind == speclang.ViolationEnd {
			t.Errorf("violation on empty trace: %+v", e)
		}
	}
}

func TestOnlineMatchesOfflineWithOffGridTimestamps(t *testing.T) {
	// Real captures timestamp frames with bus latency: not on neat
	// tick boundaries. The online step placement must match the
	// offline alignment exactly for arbitrary times.
	db := sigdb.Vehicle()
	var log can.Log
	mk := func(at time.Duration, service, enabled float64) {
		data, err := db.Pack(sigdb.FrameACCStatus, map[string]float64{
			sigdb.SigServiceACC: service,
			sigdb.SigACCEnabled: enabled,
		})
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		if err := log.Append(can.Frame{Time: at, ID: sigdb.FrameACCStatus, Data: data}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Also broadcast the other frames once so every signal exists.
	for _, id := range []uint32{sigdb.FrameVehicleDyn, sigdb.FramePedals, sigdb.FrameRadar, sigdb.FrameRadarState, sigdb.FrameACCCommand, sigdb.FrameACCOutput} {
		data, err := db.Pack(id, nil)
		if err != nil {
			t.Fatalf("Pack: %v", err)
		}
		if err := log.Append(can.Frame{Time: 0, ID: id, Data: data}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	// Off-grid times: 3ms, 17ms, 23ms, 30ms (exactly on grid), 41ms,
	// then a gap, then a violating burst at 87..113ms, and a trailing
	// partial-step frame at 135ms that the offline grid drops.
	mk(3*time.Millisecond, 0, 0)
	mk(17*time.Millisecond, 0, 0)
	mk(23*time.Millisecond, 0, 0)
	mk(30*time.Millisecond, 0, 0)
	mk(41*time.Millisecond, 0, 0)
	mk(87*time.Millisecond, 1, 1)
	mk(95*time.Millisecond, 1, 1)
	mk(113*time.Millisecond, 1, 1)
	mk(130*time.Millisecond, 0, 0)
	mk(135*time.Millisecond, 1, 1) // beyond the offline grid: dropped

	m := testMonitor(t)
	requireOnlineOfflineMatch(t, m, &log)
}

// TestOnlinePushFramesMatchesPushFrame checks that batch ingestion is
// just a loop over the single-frame contract: same events in the same
// order, with stale frames skipped and counted instead of erroring.
func TestOnlinePushFramesMatchesPushFrame(t *testing.T) {
	log := buildLog(t, 600, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		if tick >= 100 && tick < 160 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
		}
	})
	m := testMonitor(t)

	var single []OnlineEvent
	om1, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	for _, f := range log.Frames() {
		evs, err := om1.PushFrame(f)
		if err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
		single = append(single, evs...)
	}
	evs, err := om1.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	single = append(single, evs...)

	var batched []OnlineEvent
	om2, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	frames := log.Frames()
	for len(frames) > 0 {
		n := 7 // uneven batches straddle step boundaries
		if n > len(frames) {
			n = len(frames)
		}
		evs, rejected, err := om2.PushFrames(frames[:n])
		if err != nil {
			t.Fatalf("PushFrames: %v", err)
		}
		if rejected != 0 {
			t.Fatalf("PushFrames rejected %d in-order frames", rejected)
		}
		batched = append(batched, evs...)
		frames = frames[n:]
	}
	evs, err = om2.Close()
	if err != nil {
		t.Fatalf("Close: %v", err)
	}
	batched = append(batched, evs...)

	if len(single) != len(batched) {
		t.Fatalf("batched ingest produced %d events, per-frame produced %d", len(batched), len(single))
	}
	for i := range single {
		if single[i] != batched[i] {
			t.Fatalf("event %d differs:\nbatched:   %+v\nper-frame: %+v", i, batched[i], single[i])
		}
	}
	if len(single) == 0 {
		t.Fatal("trace produced no events; the comparison checked nothing")
	}
}

// TestOnlinePushFramesSkipsStale checks the batch entry point's
// drop-and-continue handling of time regressions.
func TestOnlinePushFramesSkipsStale(t *testing.T) {
	db := sigdb.Vehicle()
	m := testMonitor(t)
	om, err := m.Online(db)
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	data, err := db.Pack(sigdb.FrameVehicleDyn, map[string]float64{sigdb.SigVelocity: 24})
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	frames := []can.Frame{
		{Time: 50 * time.Millisecond, ID: sigdb.FrameVehicleDyn, Data: data},
		{Time: 10 * time.Millisecond, ID: sigdb.FrameVehicleDyn, Data: data}, // stale
		{Time: 20 * time.Millisecond, ID: sigdb.FrameVehicleDyn, Data: data}, // still stale
		{Time: 60 * time.Millisecond, ID: sigdb.FrameVehicleDyn, Data: data},
	}
	_, rejected, err := om.PushFrames(frames)
	if err != nil {
		t.Fatalf("PushFrames: %v", err)
	}
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}
	if _, err := om.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestOnlinePushFrameAllocFree pins the zero-allocation contract of the
// steady-state frame→verdict path: after warm-up (ring buffers grown,
// scratch buffers sized), pushing a frame allocates nothing — including
// frames that cross step boundaries and run the full rule pipeline.
func TestOnlinePushFrameAllocFree(t *testing.T) {
	log := buildLog(t, 4000, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
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
		if _, err := om.PushFrame(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("steady-state PushFrame allocates %.2f times per frame, want 0", allocs)
	}
}

// TestOnlineEventScratchReuse pins the documented event-slice lifetime:
// slices returned by successive pushes share the monitor's scratch
// backing, so retaining one across calls observes later events.
func TestOnlineEventScratchReuse(t *testing.T) {
	log := buildLog(t, 400, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		if tick >= 100 && tick < 160 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
		}
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	var kept []OnlineEvent
	var returns int
	for _, f := range log.Frames() {
		evs, err := om.PushFrame(f)
		if err != nil {
			t.Fatalf("PushFrame: %v", err)
		}
		if len(evs) == 0 {
			continue
		}
		returns++
		if kept == nil {
			kept = evs
			continue
		}
		if &kept[0] != &evs[0] {
			t.Fatal("successive event slices do not share the scratch backing; the documented lifetime contract is stale")
		}
	}
	if returns < 2 {
		t.Fatalf("only %d non-empty event returns; aliasing not exercised", returns)
	}
}

// TestOnlineStepBoundaries pins which step a frame lands in: the step
// whose window (stepTime-period, stepTime] contains its timestamp. A
// frame exactly on a step time closes every step before that one, a
// frame one nanosecond past it closes that step too, a frame at t=0
// closes nothing, and frames with equal timestamps share a step. The
// monitor tracks the pending step's end instead of dividing per frame;
// the table states the expected steps outright.
func TestOnlineStepBoundaries(t *testing.T) {
	m := testMonitor(t)
	p := m.period
	for _, tc := range []struct {
		name  string
		times []time.Duration
		// pending is the step accumulating frames after each push —
		// the count of finalized steps.
		pending []int
	}{
		{"at zero", []time.Duration{0}, []int{0}},
		{"equal at zero", []time.Duration{0, 0}, []int{0, 0}},
		{"one ns", []time.Duration{1}, []int{1}},
		{"on boundary", []time.Duration{p}, []int{1}},
		{"one ns past boundary", []time.Duration{p + 1}, []int{2}},
		{"equal on boundary", []time.Duration{p, p, p}, []int{1, 1, 1}},
		{"boundary then past", []time.Duration{p, p + 1, 2 * p, 2*p + 1}, []int{1, 2, 2, 3}},
		{"skips steps", []time.Duration{0, 3 * p, 3*p + 1, 7*p - 1}, []int{0, 3, 4, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			om, err := m.Online(sigdb.Vehicle())
			if err != nil {
				t.Fatal(err)
			}
			for i, at := range tc.times {
				if _, err := om.PushFrame(can.Frame{Time: at, ID: sigdb.FrameVehicleDyn}); err != nil {
					t.Fatal(err)
				}
				if om.pending != tc.pending[i] {
					t.Fatalf("frame %d at %v: pending step %d, want %d", i, at, om.pending, tc.pending[i])
				}
				if want := time.Duration(om.pending) * p; om.pendingEnd != want {
					t.Fatalf("frame %d at %v: pending step ends at %v, want %v", i, at, om.pendingEnd, want)
				}
			}
		})
	}
}

package core

import (
	"fmt"
	"testing"

	"cpsmon/internal/can"
	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
)

// TestOnlinePushFrameAllocFreeInstrumented pins that attaching metrics
// does not regress the hot path's zero-allocation contract: counters,
// the step-latency histogram and the per-rule step observer all update
// atomically with no heap traffic.
func TestOnlinePushFrameAllocFreeInstrumented(t *testing.T) {
	log := buildLog(t, 4000, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
	})
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	reg := obs.NewRegistry()
	om.Instrument(NewMetrics(reg, "strict", m.RuleNames()))
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
		t.Fatalf("instrumented PushFrame allocates %.2f times per frame, want 0", allocs)
	}
}

// TestOnlineMetricsCounts checks the instrumented session's counters
// against ground truth computed from the same trace, after every push
// call and after Close: frames decoded and steps finalized are exact
// at each return, the step-latency histograms hold one observation per
// timed call that finalized steps, and events emitted and per-rule
// violation counts match the events returned. The expected number of
// timed calls follows the sampling rule, replayed here call by call: a
// call is due first, then once at least 64 steps were finalized since
// the last timed call, and a due call that finalizes no step stays due. Frames are pushed one at a time
// and in uneven PushFrames batches.
func TestOnlineMetricsCounts(t *testing.T) {
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
	frames := log.Frames()
	for _, tc := range []struct {
		name  string
		batch int // 0: frame by frame through PushFrame
	}{{"PushFrame", 0}, {"PushFrames", 37}} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMonitor(t)
			om, err := m.Online(sigdb.Vehicle())
			if err != nil {
				t.Fatalf("Online: %v", err)
			}
			met := NewMetrics(obs.NewRegistry(), "strict", m.RuleNames())
			om.Instrument(met)

			// check compares the counters with the true totals after
			// pushed frames and steps finalized. sampled counts the
			// timed calls that finalized steps; since counts the steps
			// finalized since the last one, starting due.
			var prev, sampled, since uint64 = 0, 0, stepSampleEvery
			check := func(at string, pushed int, steps uint64) {
				t.Helper()
				if n := steps - prev; since >= stepSampleEvery {
					if n > 0 {
						sampled++
						since = 0
					}
				} else {
					since += n
				}
				prev = steps
				if got := met.framesDecoded.Value(); got != uint64(pushed) {
					t.Fatalf("%s: frames decoded = %d, want %d", at, got, pushed)
				}
				if got := met.steps.Value(); got != steps {
					t.Fatalf("%s: steps = %d, want %d", at, got, steps)
				}
				if got := met.stepLatency.Count(); got != sampled {
					t.Fatalf("%s: step latency count = %d, want %d timed calls", at, got, sampled)
				}
				for i := range met.ruleStep {
					if got := met.ruleStep[i].Count(); got != sampled {
						t.Fatalf("%s: rule %d step latency count = %d, want %d", at, i, got, sampled)
					}
				}
			}

			// A frame at time t belongs to grid step ⌈t/period⌉, and
			// pushing it finalizes every step before that one.
			var events []OnlineEvent
			for pushed := 0; pushed < len(frames); {
				var evs []OnlineEvent
				n := 1
				if tc.batch == 0 {
					evs, err = om.PushFrame(frames[pushed])
				} else {
					n = min(tc.batch, len(frames)-pushed)
					evs, _, err = om.PushFrames(frames[pushed : pushed+n])
				}
				if err != nil {
					t.Fatalf("push: %v", err)
				}
				events = append(events, evs...)
				pushed += n
				last := frames[pushed-1].Time
				check(fmt.Sprintf("after %d frames", pushed), pushed, uint64((last+m.period-1)/m.period))
			}
			evs, err := om.Close()
			if err != nil {
				t.Fatalf("Close: %v", err)
			}
			events = append(events, evs...)
			steps := uint64(frames[len(frames)-1].Time/m.period) + 1
			if steps < 2*stepSampleEvery {
				t.Fatalf("fixture spans %d steps; too few to exercise sampling", steps)
			}
			check("after Close", len(frames), steps)
			if sampled < 2 {
				t.Fatalf("only %d timed calls; too few to exercise sampling", sampled)
			}

			if got, want := met.events.Value(), uint64(len(events)); got != want || want == 0 {
				t.Errorf("events = %d, want %d (nonzero)", got, want)
			}
			wantViol := map[string]uint64{}
			for _, e := range events {
				if e.Kind == speclang.ViolationEnd {
					wantViol[e.Rule]++
				}
			}
			if len(wantViol) == 0 {
				t.Fatal("fixture produced no violations")
			}
			for rule, want := range wantViol {
				i, ok := met.ruleIndex[rule]
				if !ok {
					t.Fatalf("rule %q missing from metrics index", rule)
				}
				if got := met.ruleViolations[i].Value(); got != want {
					t.Errorf("violations[%s] = %d, want %d", rule, got, want)
				}
			}
		})
	}
}

// TestOnlineStaleFramesCounted checks the PushFrames skip path.
func TestOnlineStaleFramesCounted(t *testing.T) {
	m := testMonitor(t)
	om, err := m.Online(sigdb.Vehicle())
	if err != nil {
		t.Fatalf("Online: %v", err)
	}
	reg := obs.NewRegistry()
	met := NewMetrics(reg, "strict", m.RuleNames())
	om.Instrument(met)
	log := buildLog(t, 20, func(tick int, bus *can.Bus) {
		_ = bus.Set(sigdb.SigVelocity, 24)
	})
	frames := log.Frames()
	// Append two copies of an early frame: both regress in time.
	stale := append(append([]can.Frame(nil), frames...), frames[0], frames[1])
	_, rejected, err := om.PushFrames(stale)
	if err != nil {
		t.Fatalf("PushFrames: %v", err)
	}
	if rejected != 2 {
		t.Fatalf("rejected = %d, want 2", rejected)
	}
	if got := met.framesStale.Value(); got != 2 {
		t.Errorf("stale counter = %d, want 2", got)
	}
}

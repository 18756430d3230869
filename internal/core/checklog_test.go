// The CheckLog differential test lives in an external test package so
// it can compile the real strict and relaxed rule sets (internal/rules
// imports core, so the in-package tests cannot).
package core_test

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/obs"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
)

// fixtureLog synthesizes a bus capture with a mid-trace fault
// burst so several rules actually violate — a differential test over
// an all-satisfied trace would prove very little.
func fixtureLog(t testing.TB, ticks int) *can.Log {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	for tick := 0; tick < ticks; tick++ {
		_ = bus.Set(sigdb.SigVelocity, 22+3*float64(tick%7))
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		_ = bus.Set(sigdb.SigVehicleAhead, 1)
		_ = bus.Set(sigdb.SigTargetRange, float64(45-(tick%30)))
		_ = bus.Set(sigdb.SigSelHeadway, 2)
		if tick >= ticks/3 && tick < ticks/2 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
			_ = bus.Set(sigdb.SigRequestedTorque, 120)
			_ = bus.Set(sigdb.SigTorqueRequested, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
			_ = bus.Set(sigdb.SigRequestedTorque, 0)
			_ = bus.Set(sigdb.SigTorqueRequested, 0)
		}
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	return bus.Log()
}

// TestCheckLogMatchesCheckTrace keeps the offline log path honest
// against an independent step assignment: CheckLog replays frames
// through an online session, while CheckTrace decodes the log into a
// trace and assigns samples to steps with trace.Align. For the strict
// and the relaxed rule sets the two reports must be equal in full:
// steps, violations, classes, suppressed and activation counts.
func TestCheckLogMatchesCheckTrace(t *testing.T) {
	db := sigdb.Vehicle()
	log := fixtureLog(t, 2000)
	tr, err := trace.FromCANLog(log, db)
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	for _, spec := range []struct {
		name  string
		rules func() (*speclang.RuleSet, error)
	}{
		{"strict", rules.Strict},
		{"relaxed", rules.Relaxed},
	} {
		t.Run(spec.name, func(t *testing.T) {
			rs, err := spec.rules()
			if err != nil {
				t.Fatal(err)
			}
			mon, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
			if err != nil {
				t.Fatal(err)
			}
			want, err := mon.CheckTrace(tr)
			if err != nil {
				t.Fatalf("CheckTrace: %v", err)
			}
			if !want.AnyViolated() {
				t.Fatal("fixture produced no violations; the comparison would be vacuous")
			}
			got, err := mon.CheckLog(log, db)
			if err != nil {
				t.Fatalf("CheckLog: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CheckLog diverges from CheckTrace(FromCANLog(log))\nCheckLog:   %+v\nCheckTrace: %+v", got, want)
			}
		})
	}
}

// churnLog synthesizes a capture on which several rules open and close
// violations every few steps, out of phase with one another, so events
// of different rules fall within one checker block.
func churnLog(t testing.TB, ticks int) *can.Log {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for tick := 0; tick < ticks; tick++ {
		_ = bus.Set(sigdb.SigVelocity, 30)
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		_ = bus.Set(sigdb.SigVehicleAhead, 1)
		_ = bus.Set(sigdb.SigTargetRange, float64(45-(tick%30)))
		_ = bus.Set(sigdb.SigSelHeadway, 2)
		_ = bus.Set(sigdb.SigServiceACC, b2f(tick%7 < 3))
		_ = bus.Set(sigdb.SigACCEnabled, b2f(tick%5 < 2))
		_ = bus.Set(sigdb.SigBrakeRequested, b2f(tick%11 < 4))
		_ = bus.Set(sigdb.SigRequestedDecel, float64(tick%3-1))
		_ = bus.Set(sigdb.SigRequestedTorque, float64(tick%9-4))
		_ = bus.Set(sigdb.SigTorqueRequested, 1)
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	return bus.Log()
}

// TestBlockBoundaryDifferential pins the online monitor's events
// against the way its steps are cut into checker blocks. The stream
// checker runs queued steps a block at a time, one block per push
// call, and a timed step as a one-step block. Frame-by-frame PushFrame,
// PushFrames over runs of many lengths (around every power-of-two block
// size up to 128 steps, and random), and an instrumented session whose
// stage-timed batches run every step as its own timed block must all
// yield the same event sequence, order included, and that sequence must
// carry exactly CheckLog's violations and classes. The churn capture
// interleaves events of several rules within single blocks.
func TestBlockBoundaryDifferential(t *testing.T) {
	t.Run("fault", func(t *testing.T) { testBlockBoundaries(t, fixtureLog(t, 2000)) })
	t.Run("churn", func(t *testing.T) { testBlockBoundaries(t, churnLog(t, 1500)) })
}

func testBlockBoundaries(t *testing.T, log *can.Log) {
	db := sigdb.Vehicle()
	frames := log.Frames()
	// stepOf is the grid step a frame belongs to, as OnlineMonitor
	// assigns it.
	stepOf := func(f can.Frame) int {
		return int((f.Time + sigdb.FastPeriod - 1) / sigdb.FastPeriod)
	}
	// runs cuts the frames into runs spanning steps grid steps each;
	// next picks each run's step count.
	runs := func(next func() int) [][]can.Frame {
		var out [][]can.Frame
		for i := 0; i < len(frames); {
			end, limit := i, stepOf(frames[i])+next()
			for end < len(frames) && stepOf(frames[end]) < limit {
				end++
			}
			out = append(out, frames[i:end])
			i = end
		}
		return out
	}
	for _, spec := range []struct {
		name  string
		rules func() (*speclang.RuleSet, error)
	}{
		{"strict", rules.Strict},
		{"relaxed", rules.Relaxed},
	} {
		t.Run(spec.name, func(t *testing.T) {
			rs, err := spec.rules()
			if err != nil {
				t.Fatal(err)
			}
			mon, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
			if err != nil {
				t.Fatal(err)
			}
			open := func(instrumented bool) *core.OnlineMonitor {
				om, err := mon.Online(db)
				if err != nil {
					t.Fatal(err)
				}
				if instrumented {
					om.Instrument(core.NewMetrics(obs.NewRegistry(), spec.name, mon.RuleNames()))
				}
				return om
			}
			finish := func(om *core.OnlineMonitor, got []core.OnlineEvent) []core.OnlineEvent {
				evs, err := om.Close()
				if err != nil {
					t.Fatal(err)
				}
				return append(got, evs...)
			}

			var want []core.OnlineEvent
			om := open(false)
			for _, f := range frames {
				evs, err := om.PushFrame(f)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, evs...)
			}
			want = finish(om, want)

			rep, err := mon.CheckLog(log, db)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.AnyViolated() {
				t.Fatal("fixture produced no violations; the comparison would be vacuous")
			}
			index := make(map[string]int)
			for i, r := range rep.Rules {
				index[r.Result.Name] = i
			}
			violations := make([][]speclang.Violation, len(rep.Rules))
			classes := make([][]core.Class, len(rep.Rules))
			for _, e := range want {
				if e.Kind == speclang.ViolationEnd {
					i := index[e.Rule]
					violations[i] = append(violations[i], e.Violation)
					classes[i] = append(classes[i], e.Class)
				}
			}
			for i, r := range rep.Rules {
				if !reflect.DeepEqual(violations[i], r.Result.Violations) || !slices.Equal(classes[i], r.Classes) {
					t.Fatalf("%s: frame-by-frame events carry violations %+v (classes %v), CheckLog %+v (classes %v)",
						r.Result.Name, violations[i], classes[i], r.Result.Violations, r.Classes)
				}
			}

			rng := rand.New(rand.NewSource(19))
			lengths := []int{1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 0}
			for _, n := range lengths {
				for _, instrumented := range []bool{false, true} {
					next := func() int { return n }
					if n == 0 {
						next = func() int { return 1 + rng.Intn(200) }
					}
					om := open(instrumented)
					var got []core.OnlineEvent
					for i, run := range runs(next) {
						timed := instrumented && i%2 == 1
						if timed {
							om.BeginStageTiming()
						}
						evs, rejected, err := om.PushFrames(run)
						if err != nil || rejected != 0 {
							t.Fatalf("PushFrames: %d rejected, %v", rejected, err)
						}
						if timed {
							om.EndStageTiming()
						}
						got = append(got, evs...)
					}
					got = finish(om, got)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("runs of %d steps (instrumented %v): events diverge from frame-by-frame\nruns:  %+v\nframe: %+v", n, instrumented, got, want)
					}
				}
			}
		})
	}
}

// onlineStateAllocs is what opening a strict-spec session allocates:
// the OnlineMonitor, its copy of the database's signal order, its
// latched and fresh vectors and per-rule timing slots; the checker, its
// input binding, value and freshness columns, the instructions' operand
// columns, difference memories, window headers and their one ring
// backing, delay-line headers and their one slot backing, and per-rule
// and per-warmup decision state. Compilation happens once, in core.New,
// so it allocates nothing here.
const onlineStateAllocs = 17

// TestOnlineAllocatesOnlyState pins session cost to the session's own
// state: Monitor.Online over the strict spec compiles nothing, so its
// allocation count does not grow with the spec's instructions.
func TestOnlineAllocatesOnlyState(t *testing.T) {
	m, err := rules.NewStrictMonitor()
	if err != nil {
		t.Fatal(err)
	}
	db := sigdb.Vehicle()
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.Online(db); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > onlineStateAllocs {
		t.Fatalf("Monitor.Online allocates %.0f times, want at most %d", allocs, onlineStateAllocs)
	}
}

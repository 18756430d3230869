package speclang_test

import (
	"testing"

	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
)

// TestStreamStepZeroAllocs pins steady-state StreamChecker.Step at zero
// allocations for the paper's strict and relaxed rule sets, both as
// plain Step and as StepTimed. The input cycles through a pattern that
// opens and closes violations, so the event path is exercised too.
func TestStreamStepZeroAllocs(t *testing.T) {
	names := sigdb.Vehicle().SignalNames()
	const period = 97 // steps per input cycle
	vals := make([][]float64, period)
	upd := make([][]bool, period)
	for k := range vals {
		vals[k] = make([]float64, len(names))
		upd[k] = make([]bool, len(names))
		for i := range names {
			// Each signal sweeps a different phase through [-2, 2]; every
			// third signal updates only every fifth step.
			vals[k][i] = float64((k*(i+3))%9)/2 - 2
			upd[k][i] = i%3 != 0 || k%5 == 0
		}
	}
	for _, set := range []struct {
		name string
		load func() (*speclang.RuleSet, error)
	}{{"strict", rules.Strict}, {"relaxed", rules.Relaxed}} {
		for _, timed := range []bool{false, true} {
			rs, err := set.load()
			if err != nil {
				t.Fatal(err)
			}
			sc, err := rs.NewStreamChecker(names, sigdb.FastPeriod, speclang.EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			nanos := make([]int64, sc.NumRules())
			events := 0
			k := 0
			step := func() {
				var evs []speclang.Event
				var err error
				if timed {
					evs, err = sc.StepTimed(vals[k%period], upd[k%period], nanos)
				} else {
					evs, err = sc.Step(vals[k%period], upd[k%period])
				}
				if err != nil {
					t.Fatal(err)
				}
				events += len(evs)
				k++
			}
			for k < 20*period { // past every horizon and event-buffer high-water mark
				step()
			}
			if events == 0 {
				t.Fatalf("%s: warm-up produced no events; the pin would skip the event path", set.name)
			}
			if allocs := testing.AllocsPerRun(5*period, step); allocs != 0 {
				t.Errorf("%s (timed=%v): steady-state Step allocates %.2f times per step, want 0", set.name, timed, allocs)
			}
		}
	}
}

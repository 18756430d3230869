package speclang

import (
	"reflect"
	"testing"
	"time"
)

// scratchSource builds a multi-signal source exercising every
// evaluator path: binary arithmetic, comparisons, temporal windows,
// warmups, severity, and a monitor state machine.
func scratchSource(n int) *memSource {
	src := newMemSource(10 * time.Millisecond)
	vel := make([]float64, n)
	rng := make([]float64, n)
	upd := make([]bool, n)
	for i := 0; i < n; i++ {
		vel[i] = float64(20 + (i % 40) - (i % 13))
		rng[i] = float64(60 - (i % 55))
		upd[i] = i%5 == 0 // slow signal: updates every fifth step
	}
	src.add("velocity", vel...)
	src.addWithUpd("target_range", rng, upd)
	return src
}

const scratchSpec = `
const floor = 8.0

spec RangeFloor "range stays above a moving floor" {
  let gap = target_range - floor
  warmup 100ms
  warmup 50ms on changed(velocity)
  severity gap
  assert velocity > 5 -> always[0ms:50ms](gap > -40)
  assert eventually[0ms:200ms](target_range > 10)
}

monitor Closing "closing gaps must reopen" {
  warmup 100ms
  initial state Idle {
    when delta(target_range) < -3 => InClose
  }
  state InClose {
    when target_range > 50 => Idle
    after 300ms => violate "stuck closing"
  }
}
`

// TestScratchDifferential pins the scratch-backed evaluator to the
// plain allocator bit for bit: same rules, same source, alternating
// with and without a (reused) Scratch, across step counts that force
// the scratch to resize.
func TestScratchDifferential(t *testing.T) {
	rs := compileOne(t, scratchSpec, "velocity", "target_range")
	scr := NewScratch()
	for _, n := range []int{500, 500, 211, 500} {
		src := scratchSource(n)
		for _, mode := range []DeltaMode{DeltaUpdateAware, DeltaNaive} {
			plain, err := rs.Eval(src, EvalOptions{DeltaMode: mode})
			if err != nil {
				t.Fatalf("plain eval (n=%d): %v", n, err)
			}
			pooled, err := rs.Eval(src, EvalOptions{DeltaMode: mode, Scratch: scr})
			if err != nil {
				t.Fatalf("scratch eval (n=%d): %v", n, err)
			}
			if !reflect.DeepEqual(plain, pooled) {
				t.Errorf("n=%d mode=%v: scratch-backed results diverge\nplain:  %+v\npooled: %+v",
					n, mode, plain, pooled)
			}
		}
	}
}

// TestScratchResultsOutliveReuse verifies the lifetime contract: a
// RuleResult captured before the scratch is reused (and its slabs
// rewritten) must not change.
func TestScratchResultsOutliveReuse(t *testing.T) {
	rs := compileOne(t, scratchSpec, "velocity", "target_range")
	scr := NewScratch()
	src := scratchSource(400)
	first, err := rs.Eval(src, EvalOptions{Scratch: scr})
	if err != nil {
		t.Fatal(err)
	}
	snapshot, err := rs.Eval(src, EvalOptions{Scratch: scr})
	if err != nil {
		t.Fatal(err)
	}
	// Reuse the scratch over a different source; first/snapshot must
	// stay intact if no slab memory leaked into the results.
	if _, err := rs.Eval(scratchSource(399), EvalOptions{Scratch: scr}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, snapshot) {
		t.Errorf("results changed after scratch reuse:\nfirst:    %+v\nsnapshot: %+v", first, snapshot)
	}
}

// TestScratchAllocs pins the steady-state allocation count of a
// scratch-backed evaluation: the per-step slabs (the dominant cost,
// one per expression node) must all come from the scratch. What is
// left is per-rule bookkeeping — result slices, the lets map, violation
// messages — which is independent of the step count.
func TestScratchAllocs(t *testing.T) {
	rs := compileOne(t, scratchSpec, "velocity", "target_range")
	src := scratchSource(4096)
	scr := NewScratch()
	opts := EvalOptions{Scratch: scr}
	if _, err := rs.Eval(src, opts); err != nil { // warm the slab pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := rs.Eval(src, opts); err != nil {
			t.Fatal(err)
		}
	})
	// The two marks []string vectors are the only remaining n-sized
	// allocations; everything else is constant-size bookkeeping.
	const maxAllocs = 60
	if allocs > maxAllocs {
		t.Errorf("scratch-backed Eval allocates %.0f times per run, want <= %d", allocs, maxAllocs)
	}
}

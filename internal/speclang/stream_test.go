package speclang

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// requireEquivalent checks that RuleSet.Eval, which runs the compiled
// stream checker, reproduces the reference semantics exactly.
func requireEquivalent(t *testing.T, ruleSrc string, src *memSource, opts EvalOptions, signals ...string) {
	t.Helper()
	if err := checkEquivalent(compileOne(t, ruleSrc, signals...), src, opts); err != nil {
		t.Fatal(err)
	}
}

// checkEquivalent compares RuleSet.Eval with refEval rule by rule: the
// same violations (bounds, times, messages and peaks, a NaN severity
// peaking at +Inf in both) and the same checked, suppressed and
// activation step counts.
func checkEquivalent(rs *RuleSet, src Source, opts EvalOptions) error {
	want, err := refEval(rs, src, opts)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	got, err := rs.Eval(src, opts)
	if err != nil {
		return fmt.Errorf("Eval: %v", err)
	}
	if len(got) != len(want) {
		return fmt.Errorf("Eval returned %d rules, reference %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("rule %s (delta mode %d) diverges from the reference\nstream:    %+v\nreference: %+v",
				want[i].Name, opts.DeltaMode, got[i], want[i])
		}
	}
	return nil
}

func TestStreamSimpleAssertEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).add("x", 0, 0, 1, 2, 0, 0, 3, 0)
	requireEquivalent(t, `spec R { assert x <= 0 }`, src, EvalOptions{}, "x")
}

func TestStreamViolationEvents(t *testing.T) {
	rs := compileOne(t, `spec R { severity x assert x <= 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 2, 7, 0, 0)
	sc, err := rs.NewStreamChecker([]string{"x"}, src.StepPeriod(), EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	var kinds []EventKind
	var last Event
	for step := 0; step < src.NumSteps(); step++ {
		events, err := sc.Step([]float64{src.vals["x"][step]}, []bool{true})
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		for _, e := range events {
			kinds = append(kinds, e.Kind)
			last = e
		}
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if len(kinds) != 2 || kinds[0] != ViolationBegin || kinds[1] != ViolationEnd {
		t.Fatalf("event kinds = %v, want [begin end]", kinds)
	}
	if last.Violation.StartStep != 1 || last.Violation.EndStep != 3 || last.Violation.Peak != 7 {
		t.Errorf("violation = %+v", last.Violation)
	}
}

func TestStreamEventLatencyBounded(t *testing.T) {
	// A rule with a 400 ms horizon must report a violation no later
	// than horizon+1 steps after it starts.
	rs := compileOne(t, `spec R { assert eventually[0:40ms](x <= 0) }`, "x")
	sc, err := rs.NewStreamChecker([]string{"x"}, 10*time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	beginAt := -1
	for step := 0; step < 100; step++ {
		events, err := sc.Step([]float64{1}, []bool{true})
		if err != nil {
			t.Fatalf("Step: %v", err)
		}
		for _, e := range events {
			if e.Kind == ViolationBegin && beginAt < 0 {
				beginAt = step
			}
		}
	}
	// Step 0's window [0,4] is all-violating; decidable at step 4.
	if beginAt != 4 {
		t.Errorf("violation begin delivered at step %d, want 4", beginAt)
	}
}

func TestStreamFinishTwiceAndStepAfterFinish(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	sc, err := rs.NewStreamChecker([]string{"x"}, time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	if _, err := sc.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if _, err := sc.Finish(); err == nil {
		t.Error("second Finish succeeded")
	}
	if _, err := sc.Step([]float64{1}, []bool{true}); err == nil {
		t.Error("Step after Finish succeeded")
	}
}

func TestStreamChecksArgLengths(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	sc, err := rs.NewStreamChecker([]string{"x"}, time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatalf("NewStreamChecker: %v", err)
	}
	if _, err := sc.Step([]float64{1, 2}, []bool{true, false}); err == nil {
		t.Error("wrong-length step accepted")
	}
	if got := sc.Signals(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Signals = %v", got)
	}
}

func TestStreamRejectsBadPeriod(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	if _, err := rs.NewStreamChecker([]string{"x"}, 0, EvalOptions{}); err == nil {
		t.Error("zero period accepted")
	}
}

func TestStreamUnknownSignal(t *testing.T) {
	rs := compileOne(t, `spec R { assert x }`, "x")
	if _, err := rs.NewStreamChecker([]string{"y"}, time.Millisecond, EvalOptions{}); err == nil {
		t.Error("stream without required signal accepted")
	}
}

// ---------- equivalence over handcrafted corner cases ----------

func TestStreamTemporalTruncationEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("b", 1, 1, 1, 1, 1, 1, 1, 1, 1, 1).
		add("x", 1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
	requireEquivalent(t, `spec R { assert b -> eventually[0:30ms](x <= 0) }`, src, EvalOptions{}, "b", "x")
}

func TestStreamTemporalLowBoundEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("x", 0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0)
	requireEquivalent(t, `spec R { assert eventually[20ms:50ms](x <= 0) }`, src, EvalOptions{}, "x")
	requireEquivalent(t, `spec R { assert always[10ms:40ms](x <= 0) }`, src, EvalOptions{}, "x")
}

func TestStreamShortTraceEquivalence(t *testing.T) {
	// Trace shorter than the temporal horizon: every window truncated.
	src := newMemSource(10*time.Millisecond).add("x", 1, 1)
	requireEquivalent(t, `spec R { assert eventually[0:200ms](x <= 0) }`, src, EvalOptions{}, "x")
	requireEquivalent(t, `spec R { assert always[0:200ms](x <= 0) }`, src, EvalOptions{}, "x")
}

func TestStreamMonitorEquivalence(t *testing.T) {
	vals := []float64{2, 2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2, 2, 0.5, 0.5}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	requireEquivalent(t, `
monitor M {
  initial state Normal {
    when x < 1.0 => Low
  }
  state Low {
    when x >= 1.0 => Normal
    after 50ms => violate "stuck low"
  }
}`, src, EvalOptions{}, "x")
}

func TestStreamMonitorTemporalGuardEquivalence(t *testing.T) {
	vals := []float64{0, 0, 1, 1, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1, 0}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	requireEquivalent(t, `
monitor M {
  initial state A {
    when always[0:30ms](x > 0) => violate "sustained" then B
  }
  state B {
    when x <= 0 => A
  }
}`, src, EvalOptions{}, "x")
}

func TestStreamWarmupEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 0, 1, 1, 1, 1, 0, 1, 1, 1).
		add("x", 9, 9, 9, 9, 9, 0, 9, 9, 9, 9)
	requireEquivalent(t, `spec R { warmup 20ms on rise(b) assert b -> x <= 0 }`, src, EvalOptions{}, "b", "x")
	requireEquivalent(t, `spec R { warmup 30ms assert x <= 0 }`, src, EvalOptions{}, "b", "x")
}

func TestStreamSeverityNaNEquivalence(t *testing.T) {
	nan := math.NaN()
	src := newMemSource(10*time.Millisecond).
		add("x", 0, nan, nan, 2, 0)
	requireEquivalent(t, `spec R { severity x assert x <= 0 }`, src, EvalOptions{}, "x")
}

func TestStreamMultiRateEquivalence(t *testing.T) {
	vals := []float64{10, 10, 10, 10, 20, 20, 20, 20, 30, 30, 30, 30}
	upd := []bool{true, false, false, false, true, false, false, false, true, false, false, false}
	src := newMemSource(10*time.Millisecond).addWithUpd("x", vals, upd)
	for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
		requireEquivalent(t, `spec R { assert delta(x) <= 0 }`, src, EvalOptions{DeltaMode: mode}, "x")
		requireEquivalent(t, `spec R { assert rate(x) <= 100 }`, src, EvalOptions{DeltaMode: mode}, "x")
		requireEquivalent(t, `spec R { assert prev(x) == x || !valid(prev(x)) }`, src, EvalOptions{DeltaMode: mode}, "x")
	}
}

func TestStreamBuiltinsEquivalence(t *testing.T) {
	src := newMemSource(10*time.Millisecond).
		add("x", -3, 2, 7, 0, -1, 4).
		add("y", 1, -9, 7, 2, 2, -2).
		add("b", 1, 0, 1, 1, 0, 0)
	requireEquivalent(t, `spec R {
  assert min(x, y) <= max(x, y)
  assert cond(b, x, y) == cond(!b, y, x)
  assert abs(x) >= 0
  assert rise(b) -> !fall(b)
  assert changed(y) || !changed(y)
  assert updated(x)
}`, src, EvalOptions{}, "x", "y", "b")
}

func TestStreamNestedTemporalEquivalence(t *testing.T) {
	// Nested windows compose delays: the outer operator waits for the
	// inner one's delayed outputs. The reference defines the composed
	// semantics.
	vals := []float64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 1, 1}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	cases := []string{
		`spec N1 { assert always[0:40ms](eventually[0:20ms](x > 0)) }`,
		`spec N2 { assert eventually[0:30ms](always[0:20ms](x > 0)) }`,
		`spec N3 { assert eventually[10ms:50ms](x > 0) && always[0:20ms](x >= 0) }`,
		`spec N4 { assert once[0:30ms](eventually[0:20ms](x > 0)) }`,
		`spec N5 { assert always[0:20ms](historically[0:20ms](x >= 0)) }`,
		`spec N6 { assert delta(cond(eventually[0:20ms](x > 0), 1, 0)) <= 1 }`,
	}
	for _, ruleSrc := range cases {
		requireEquivalent(t, ruleSrc, src, EvalOptions{}, "x")
	}
}

func TestStreamMixedDelayBinaryEquivalence(t *testing.T) {
	// Children with different delays under one operator: the
	// alignment queues must keep them in lockstep.
	src := newMemSource(10*time.Millisecond).
		add("x", 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0).
		add("y", 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0, 1)
	cases := []string{
		`spec M1 { assert eventually[0:40ms](x > 0) -> y >= 0 }`,
		`spec M2 { assert (eventually[0:40ms](x > 0)) == (eventually[0:20ms](y > 0)) || true }`,
		`spec M3 { assert min(cond(always[0:30ms](x >= 0), 1, 0), y + 1) >= 0 }`,
		`spec M4 { assert !eventually[0:50ms](x > 0) || once[0:20ms](y > 0) || y <= 1 }`,
	}
	for _, ruleSrc := range cases {
		requireEquivalent(t, ruleSrc, src, EvalOptions{}, "x", "y")
	}
}

// ---------- randomized equivalence ----------

// randomSource builds an n-step trace of a multi-rate float x (updated
// on ~40% of steps, occasionally NaN) and a boolean a updated every
// step.
func randomSource(rng *rand.Rand, n int) *memSource {
	xv, xu := make([]float64, n), make([]bool, n)
	cur := rng.Float64()
	for i := 0; i < n; i++ {
		if i == 0 || rng.Float64() < 0.4 {
			cur = rng.Float64()*2 - 0.5
			if rng.Float64() < 0.05 {
				cur = math.NaN()
			}
			xu[i] = true
		}
		xv[i] = cur
	}
	av, au := make([]float64, n), make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			av[i] = 1
		}
		au[i] = true
	}
	return newMemSource(10*time.Millisecond).addWithUpd("x", xv, xu).addWithUpd("a", av, au)
}

// randomizedRules is a grab-bag of rules covering every language
// feature; FuzzStreamSemantics seeds its corpus with them.
var randomizedRules = []string{
	`spec R1 { assert a -> x <= 0.5 }`,
	`spec R2 { severity delta(x) assert delta(x) <= 0.3 }`,
	`spec R3 { assert a -> eventually[0:50ms](x <= 0.2) }`,
	`spec R4 { assert always[20ms:60ms](x <= 0.9) }`,
	`spec R5 { warmup 40ms on rise(a) let d = delta(x) assert a -> d <= 0.4 }`,
	`spec R6 { assert eventually[30ms:30ms](x > 0.1) }`,
	`monitor M1 {
		initial state N { when a && x < 0.3 => L }
		state L { when !a || x >= 0.3 => N
		          after 70ms => violate "low" }
	}`,
	`monitor M2 {
		warmup 30ms
		initial state A { when eventually[0:20ms](x > 0.8) => violate "spike" }
	}`,
	`spec R7 { assert always[0:30ms](eventually[0:20ms](x > 0.2)) || once[0:40ms](x > 0.9) }`,
	`spec R8 { assert (eventually[0:30ms](x > 0.7)) -> historically[0:20ms](x > -1) }`,
}

// TestStreamRandomizedEquivalence drives the stream checker and the
// reference over random multi-rate traces with randomizedRules,
// requiring identical results.
func TestStreamRandomizedEquivalence(t *testing.T) {
	for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			src := randomSource(rng, 5+rng.Intn(120))
			for _, ruleSrc := range randomizedRules {
				requireEquivalent(t, ruleSrc, src, EvalOptions{DeltaMode: mode}, "x", "a")
			}
		}
	}
}

// featureSource builds a fast velocity signal and a slow target_range
// signal, updated every fifth step.
func featureSource(n int) *memSource {
	vel := make([]float64, n)
	rng := make([]float64, n)
	upd := make([]bool, n)
	for i := 0; i < n; i++ {
		vel[i] = float64(20 + (i % 40) - (i % 13))
		rng[i] = float64(60 - (i % 55))
		upd[i] = i%5 == 0
	}
	return newMemSource(10*time.Millisecond).add("velocity", vel...).addWithUpd("target_range", rng, upd)
}

// TestStreamFeatureSpecEquivalence runs one file using every evaluation
// path at once (a const, a let, both warmup kinds, severity, an
// implication with a temporal consequent, and a monitor with a
// deadline) over traces of several lengths, in both delta modes.
func TestStreamFeatureSpecEquivalence(t *testing.T) {
	const spec = `
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
	for _, n := range []int{500, 211, 7} {
		for _, mode := range []DeltaMode{DeltaUpdateAware, DeltaNaive} {
			requireEquivalent(t, spec, featureSource(n), EvalOptions{DeltaMode: mode}, "velocity", "target_range")
		}
	}
}

// TestStreamEventOrder pins the checker's event order: by the step that
// decides an event, then by rule-set order, whether the steps run as
// one block (Push), as one-step blocks (Step) or are still queued at
// Finish; Finish drains rule by rule. B and A violate over the same
// steps, so every decided step carries an event of each; C violates
// throughout, but its horizon decides step 0 only at step 2.
func TestStreamEventOrder(t *testing.T) {
	rs := compileOne(t, `
spec B { assert x < 0.5 }
spec A { assert x < 0.5 }
spec C { assert always[0:20ms](x < 0.5) }
`, "x")
	xs := []float64{0, 1, 1, 0, 1, 0, 0, 1, 1, 1}
	want := []string{
		"B+@1", "A+@1", "C+@0", "B-@3", "A-@3", "B+@4", "A+@4", "B-@5", "A-@5", "B+@7", "A+@7",
		"B-@10", "A-@10", "C-@10",
	}
	for _, mode := range []string{"push", "step", "queued"} {
		sc, err := rs.NewStreamChecker([]string{"x"}, 10*time.Millisecond, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		add := func(evs []Event) {
			for _, e := range evs {
				kind := "+"
				if e.Kind == ViolationEnd {
					kind = "-"
				}
				got = append(got, fmt.Sprintf("%s%s@%d", e.Rule, kind, e.Time/(10*time.Millisecond)))
			}
		}
		for _, x := range xs {
			var evs []Event
			switch mode {
			case "step":
				evs, err = sc.Step([]float64{x}, []bool{true})
			default:
				evs, err = sc.Push([]float64{x}, []bool{true})
			}
			if err != nil {
				t.Fatal(err)
			}
			add(evs)
		}
		if mode == "push" {
			evs, err := sc.Flush()
			if err != nil {
				t.Fatal(err)
			}
			add(evs)
		}
		evs, err := sc.Finish()
		if err != nil {
			t.Fatal(err)
		}
		add(evs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: events %v, want %v", mode, got, want)
		}
	}
}

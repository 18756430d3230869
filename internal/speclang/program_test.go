package speclang

import (
	"math/rand"
	"testing"
	"time"
)

// TestStreamSharedStatefulEquivalence covers stateful subexpressions the
// compiler shares within a rule: each is one instruction whose output
// several roots or operands read.
func TestStreamSharedStatefulEquivalence(t *testing.T) {
	ruleSrcs := []string{
		// delta(x) in severity and assert, once through a delay line.
		`spec S1 { severity delta(x) assert delta(x) <= 0.3 }`,
		`spec S2 { severity delta(x) assert a -> eventually[0:40ms](delta(x) <= 0) }`,
		// A let over prev(x) referenced twice.
		`spec S3 { let p = prev(x) assert !valid(p) || x - p <= 0.5 || p > 1 }`,
		`spec S4 { let p = prev(x) severity p assert always[0:20ms](p <= 1) || changed(p) }`,
		// rise(a) in both a warmup trigger and an assert.
		`spec S5 { warmup 30ms on rise(a) assert !rise(a) || x < 0.5 }`,
		`monitor S6 {
			warmup 20ms on rise(a)
			initial state A { when rise(a) && eventually[0:30ms](x > 0.8) => violate "spike" then B }
			state B { when !a => A }
		}`,
	}
	for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
		for seed := int64(0); seed < 20; seed++ {
			src := randomSource(rand.New(rand.NewSource(seed)), 5+int(seed)*6)
			for _, ruleSrc := range ruleSrcs {
				requireEquivalent(t, ruleSrc, src, EvalOptions{DeltaMode: mode}, "x", "a")
			}
		}
	}
}

// TestStreamUnequalDelayNestingEquivalence nests operands of unequal
// delay at several depths, over traces both shorter and longer than the
// rule horizon (90 ms = 9 steps), so delay lines drain mid-fill.
func TestStreamUnequalDelayNestingEquivalence(t *testing.T) {
	ruleSrcs := []string{
		`spec U1 { assert (x > 0 && eventually[0:30ms](a)) || (eventually[0:50ms](x > 0.5 && eventually[0:20ms](a)) && prev(x) < 1) }`,
		`spec U2 { assert cond(always[10ms:40ms](a), x, eventually[0:20ms](x > 0.2)) > min(x, cond(eventually[0:90ms](!a), 1, 0)) || a }`,
		`spec U3 { severity delta(x) assert eventually[0:20ms](x < 0.1 || always[0:40ms](a && eventually[0:30ms](x > 0.9))) || rise(a) }`,
		`spec U4 { warmup 30ms on eventually[0:50ms](rise(a)) severity x assert once[0:30ms](eventually[0:40ms](a)) -> x < 1 }`,
	}
	for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
		for n := 1; n <= 30; n++ {
			src := randomSource(rand.New(rand.NewSource(int64(n))), n)
			for _, ruleSrc := range ruleSrcs {
				requireEquivalent(t, ruleSrc, src, EvalOptions{DeltaMode: mode}, "x", "a")
			}
		}
	}
}

// TestStreamSharesWithinRule pins the compiler's sharing: a let and a
// repeated subexpression compile to one instruction, delay lines appear
// only where operand delays differ, and rules share nothing.
func TestStreamSharesWithinRule(t *testing.T) {
	rs := compileOne(t, `
spec A {
  let d = delta(x)
  severity delta(x)
  assert d <= 0 && delta(x) > -1
}
spec B {
  severity delta(x)
  assert a -> eventually[0:400ms](delta(x) <= 0)
}`, "x", "a")
	sc, err := rs.NewStreamChecker([]string{"x", "a"}, 10*time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *ruleStream, op opcode) int {
		n := 0
		for _, in := range r.prog.code {
			if in.op == op {
				n++
			}
		}
		return n
	}
	a, b := sc.rules[0], sc.rules[1]
	if got := count(a, opDelta); got != 1 {
		t.Errorf("rule A: %d delta instructions, want 1 shared", got)
	}
	if got := count(a, opDelay); got != 0 {
		t.Errorf("rule A: %d delay lines, want none (all operands share delay 0)", got)
	}
	if got := count(b, opDelta); got != 1 {
		t.Errorf("rule B: %d delta instructions, want 1 shared", got)
	}
	// B's antecedent and its severity are both shorter than the
	// eventually by 40 steps.
	if got := count(b, opDelay); got != 2 {
		t.Errorf("rule B: %d delay lines, want 2", got)
	}
	if b.delay != 40 {
		t.Errorf("rule B delay = %d, want 40", b.delay)
	}
	if &a.prog.regs[0] == &b.prog.regs[0] {
		t.Error("rules share a register file")
	}
}

// TestStreamStepTimedOncePerRuleInOrder pins the StepTimed contract:
// each rule's slot is written once per timed step, in rule-set order,
// with the time between consecutive clock readings; plain Step and
// Finish read no clock and write nothing.
func TestStreamStepTimedOncePerRuleInOrder(t *testing.T) {
	rs := compileOne(t, `
spec R0 { assert x <= 0.5 }
spec R1 { severity delta(x) assert eventually[0:40ms](x < 0.2) }
monitor R2 { initial state A { when a && x > 0.9 => violate "hi" } }
`, "x", "a")
	src := randomSource(rand.New(rand.NewSource(7)), 60)
	names := []string{"a", "x"}
	sc, err := rs.NewStreamChecker(names, src.StepPeriod(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumRules() != 3 {
		t.Fatalf("NumRules = %d, want 3", sc.NumRules())
	}
	// The fake clock's j-th reading within a step advances it j ns, so
	// the interval ending at reading j lasts j ns: slot i holds i+2
	// exactly when rule i was timed (i+1)-th and written once.
	var reads int
	var now time.Time
	saved := clock
	clock = func() time.Time {
		reads++
		now = now.Add(time.Duration(reads))
		return now
	}
	t.Cleanup(func() { clock = saved })

	vals, upd := make([]float64, 2), make([]bool, 2)
	nanos := make([]int64, 3)
	for k := 0; k < src.NumSteps(); k++ {
		for i, name := range names {
			vals[i], upd[i] = src.vals[name][k], src.upd[name][k]
		}
		for i := range nanos {
			nanos[i] = -1
		}
		reads = 0
		if k%2 == 1 {
			if _, err := sc.Step(vals, upd); err != nil {
				t.Fatal(err)
			}
			if reads != 0 || nanos[0] != -1 || nanos[1] != -1 || nanos[2] != -1 {
				t.Fatalf("step %d: plain Step read the clock %d times, slots %v", k, reads, nanos)
			}
			continue
		}
		if _, err := sc.StepTimed(vals, upd, nanos); err != nil {
			t.Fatal(err)
		}
		if reads != 4 || nanos[0] != 2 || nanos[1] != 3 || nanos[2] != 4 {
			t.Fatalf("step %d: %d clock reads, slots %v; want 4 reads, slots [2 3 4]", k, reads, nanos)
		}
	}
	if _, err := sc.StepTimed(vals, upd, nanos[:2]); err == nil {
		t.Error("StepTimed accepted a nanos slice shorter than the rule count")
	}
	reads = 0
	if _, err := sc.Finish(); err != nil {
		t.Fatal(err)
	}
	if reads != 0 {
		t.Errorf("Finish read the clock %d times; only StepTimed times a step", reads)
	}
}

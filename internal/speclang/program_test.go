package speclang

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"cpsmon/internal/sigdb"
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
		// Update-aware differences of a multi-rate signal delayed beside
		// a window over it: the delay line must pass its freshness on.
		`spec U5 { severity prev(x * eventually[0:30ms](x > 0.2)) assert delta(x - cond(eventually[0:20ms](x < 0.4), 1, 0)) <= 0.2 }`,
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
	p, err := rs.NewProgram(10*time.Millisecond, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *ruleProg, op opcode) int {
		n := 0
		for _, in := range p.code[r.lo:r.hi] {
			if in.op == op {
				n++
			}
		}
		return n
	}
	a, b := &p.rules[0], &p.rules[1]
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
	// Both rules load x from the one input block; every register an
	// instruction writes belongs to one rule.
	written := make(map[int32]bool)
	for _, in := range p.code[a.lo:a.hi] {
		written[in.dst] = true
	}
	for _, in := range p.code[b.lo:b.hi] {
		if written[in.dst] {
			t.Errorf("rules share register %d", in.dst)
		}
	}
}

// TestStreamTimedBlocksOncePerRuleInOrder pins the Time contract: an
// armed checker reads the clock once before each block and once after
// each rule, and adds each rule's interval to its slot once per block,
// in rule-set order, whichever call ran the block; a disarmed checker's
// Push, Flush, Step and Finish read no clock and write nothing; and a
// slice of the wrong length is refused.
func TestStreamTimedBlocksOncePerRuleInOrder(t *testing.T) {
	rs := compileOne(t, `
spec R0 { assert x <= 0.5 }
spec R1 { severity delta(x) assert eventually[0:40ms](x < 0.2) }
monitor R2 { initial state A { when a && x > 0.9 => violate "hi" } }
`, "x", "a")
	src := randomSource(rand.New(rand.NewSource(7)), 20*blockSteps)
	names := []string{"a", "x"}
	sc, err := rs.NewStreamChecker(names, src.StepPeriod(), EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sc.NumRules() != 3 {
		t.Fatalf("NumRules = %d, want 3", sc.NumRules())
	}
	// The fake clock's j-th reading since reads was reset advances it
	// j ns, so the interval ending at reading j lasts j ns: after one
	// block, slot i holds i+2 exactly when rule i was timed (i+1)-th and
	// written once; a second block in the same call adds i+6.
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
	k := 0
	next := func() {
		for i, name := range names {
			vals[i], upd[i] = src.vals[name][k], src.upd[name][k]
		}
		k++
	}
	push := func(n int) {
		for ; n > 0; n-- {
			next()
			if _, err := sc.Push(vals, upd); err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func() {
		if _, err := sc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	step := func() {
		next()
		if _, err := sc.Step(vals, upd); err != nil {
			t.Fatal(err)
		}
	}
	nanos := make([]int64, 3)
	check := func(what string, call func(), wantReads int, want ...int64) {
		t.Helper()
		reads = 0
		for i := range nanos {
			nanos[i] = 0
		}
		call()
		if reads != wantReads || !reflect.DeepEqual(nanos, want) {
			t.Fatalf("%s: %d clock reads, slots %v; want %d reads, slots %v", what, reads, nanos, wantReads, want)
		}
	}

	for round := 0; round < 3; round++ {
		if err := sc.Time(nanos); err != nil {
			t.Fatal(err)
		}
		check("armed Step", step, 4, 2, 3, 4)
		check("armed partial Push", func() { push(blockSteps - 1) }, 0, 0, 0, 0)
		check("armed Flush", flush, 4, 2, 3, 4)
		check("armed full Push", func() { push(blockSteps) }, 4, 2, 3, 4)
		check("armed Push+Flush", func() { push(blockSteps + 5); flush() }, 8, 8, 10, 12)
		check("armed empty Flush", flush, 0, 0, 0, 0)
		if err := sc.Time(nil); err != nil {
			t.Fatal(err)
		}
		check("disarmed Step", step, 0, 0, 0, 0)
		check("disarmed Push", func() { push(blockSteps + 3) }, 0, 0, 0, 0)
		check("disarmed Flush", flush, 0, 0, 0, 0)
	}

	for _, n := range []int{2, 4} {
		if err := sc.Time(make([]int64, n)); err == nil {
			t.Errorf("Time accepted %d rule slots for 3 rules", n)
		}
	}
	// A refused slice leaves the checker disarmed.
	check("Step after refusal", step, 0, 0, 0, 0)
	check("disarmed Finish", func() {
		push(3)
		if _, err := sc.Finish(); err != nil {
			t.Fatal(err)
		}
	}, 0, 0, 0, 0)
}

// TestStreamLinksRulesOverDifferentSignals runs rules that each load
// signals no earlier rule loads, so the checker's register file
// interleaves input columns first loaded late with earlier rules' own
// registers; every rule must still match the reference.
func TestStreamLinksRulesOverDifferentSignals(t *testing.T) {
	rules := `
spec P { let d = delta(x) assert x < 1.2 && d > -2 && !(x > 1.4) }
spec Q { severity abs(b) assert a -> eventually[0:30ms](b < 0.8 || prev(b) > 1) }
monitor R {
	initial state A { when c > 0.9 && b > 0.5 => violate "hi" then B }
	state B { when c < 0.2 => A after 40ms => violate "stuck" }
}
spec S { assert c + x < 2.5 || updated(a) }
`
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		src := randomSource(rng, 80)
		b := randomSource(rng, 80)
		c := randomSource(rng, 80)
		src.addWithUpd("b", b.vals["x"], b.upd["x"]).addWithUpd("c", c.vals["x"], c.upd["x"])
		for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
			requireEquivalent(t, rules, src, EvalOptions{DeltaMode: mode}, "x", "a", "b", "c")
		}
	}
}

// TestShippedProgramsDoNotGrow pins the instruction counts of the
// paper's strict and relaxed rule sets, compiled as the monitor compiles
// them: every truth value they read is an input's truth word or an
// instruction's result, so they compile no conversion, and a one-step
// block dispatches no more instructions than before registers had
// kinds.
func TestShippedProgramsDoNotGrow(t *testing.T) {
	for _, c := range []struct {
		file string
		want int
	}{{"strict.spec", 41}, {"relaxed.spec", 49}} {
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", c.file))
		if err != nil {
			t.Fatal(err)
		}
		f, err := Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		rs, err := Compile(f, sigdb.Vehicle().SignalNames())
		if err != nil {
			t.Fatal(err)
		}
		p, err := rs.NewProgram(sigdb.FastPeriod, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.code) != c.want {
			t.Errorf("%s compiles to %d instructions, want %d", c.file, len(p.code), c.want)
		}
		for _, in := range p.code {
			if in.op == opTruthy || in.op == opNum {
				t.Errorf("%s compiles a conversion (opcode %d)", c.file, in.op)
			}
		}
	}
}

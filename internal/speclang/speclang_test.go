package speclang

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// memSource is an in-memory Source for tests.
type memSource struct {
	period time.Duration
	vals   map[string][]float64
	upd    map[string][]bool
	n      int
}

func newMemSource(period time.Duration) *memSource {
	return &memSource{
		period: period,
		vals:   make(map[string][]float64),
		upd:    make(map[string][]bool),
	}
}

// add registers a signal updated at every step.
func (m *memSource) add(name string, vals ...float64) *memSource {
	upd := make([]bool, len(vals))
	for i := range upd {
		upd[i] = true
	}
	return m.addWithUpd(name, vals, upd)
}

func (m *memSource) addWithUpd(name string, vals []float64, upd []bool) *memSource {
	m.vals[name] = vals
	m.upd[name] = upd
	if len(vals) > m.n {
		m.n = len(vals)
	}
	return m
}

func (m *memSource) NumSteps() int             { return m.n }
func (m *memSource) StepPeriod() time.Duration { return m.period }
func (m *memSource) Values(name string) ([]float64, bool) {
	v, ok := m.vals[name]
	return v, ok
}
func (m *memSource) Updated(name string) ([]bool, bool) {
	u, ok := m.upd[name]
	return u, ok
}

func compileOne(t *testing.T, src string, signals ...string) *RuleSet {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	rs, err := Compile(f, signals)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return rs
}

func evalOne(t *testing.T, rs *RuleSet, src Source) RuleResult {
	t.Helper()
	results, err := rs.Eval(src, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results, want 1", len(results))
	}
	return results[0]
}

// ---------- lexer ----------

func TestLexerTokens(t *testing.T) {
	lx := newLexer(`foo 3.5 400ms 5s "hi" { } ( ) [ ] : , = -> => || && ! < <= > >= == != + - * /`)
	want := []tokenKind{
		tokIdent, tokNumber, tokDuration, tokDuration, tokString,
		tokLBrace, tokRBrace, tokLParen, tokRParen, tokLBracket,
		tokRBracket, tokColon, tokComma, tokAssign, tokArrow,
		tokFatArrow, tokOr, tokAnd, tokNot, tokLT, tokLE, tokGT, tokGE,
		tokEQ, tokNE, tokPlus, tokMinus, tokStar, tokSlash, tokEOF,
	}
	for i, w := range want {
		tk, err := lx.next()
		if err != nil {
			t.Fatalf("token %d: %v", i, err)
		}
		if tk.kind != w {
			t.Fatalf("token %d = %v, want %v", i, tk.kind, w)
		}
	}
}

func TestLexerDurations(t *testing.T) {
	tests := []struct {
		src  string
		want time.Duration
	}{
		{"400ms", 400 * time.Millisecond},
		{"5s", 5 * time.Second},
		{"0.5s", 500 * time.Millisecond},
		{"2.5ms", 2500 * time.Microsecond},
	}
	for _, tt := range tests {
		lx := newLexer(tt.src)
		tk, err := lx.next()
		if err != nil {
			t.Fatalf("%q: %v", tt.src, err)
		}
		if tk.kind != tokDuration || tk.dur != tt.want {
			t.Errorf("%q = %v %v, want duration %v", tt.src, tk.kind, tk.dur, tt.want)
		}
	}
}

func TestLexerNumberNotDuration(t *testing.T) {
	// "5sec" should lex as number 5 then identifier "sec"? No: 's'
	// followed by an identifier byte is not a duration suffix, so this
	// is 5 then ident "sec".
	lx := newLexer("5sec")
	tk, err := lx.next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if tk.kind != tokNumber || tk.num != 5 {
		t.Fatalf("first token = %v %v, want number 5", tk.kind, tk.num)
	}
	tk, err = lx.next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if tk.kind != tokIdent || tk.text != "sec" {
		t.Fatalf("second token = %v %q, want ident sec", tk.kind, tk.text)
	}
}

func TestLexerScientificNotation(t *testing.T) {
	lx := newLexer("4.94e-324 1e3")
	tk, _ := lx.next()
	if tk.kind != tokNumber || tk.num != 4.94e-324 {
		t.Errorf("token = %v %v", tk.kind, tk.num)
	}
	tk, _ = lx.next()
	if tk.kind != tokNumber || tk.num != 1000 {
		t.Errorf("token = %v %v", tk.kind, tk.num)
	}
}

func TestLexerComments(t *testing.T) {
	lx := newLexer("// a comment\nfoo // trailing\n")
	tk, _ := lx.next()
	if tk.kind != tokIdent || tk.text != "foo" {
		t.Fatalf("token = %v %q", tk.kind, tk.text)
	}
	tk, _ = lx.next()
	if tk.kind != tokEOF {
		t.Fatalf("token = %v, want EOF", tk.kind)
	}
}

func TestLexerStringEscapes(t *testing.T) {
	lx := newLexer(`"a\"b\\c\nd"`)
	tk, err := lx.next()
	if err != nil {
		t.Fatalf("next: %v", err)
	}
	if tk.text != "a\"b\\c\nd" {
		t.Errorf("string = %q", tk.text)
	}
}

func TestLexerErrors(t *testing.T) {
	tests := []string{"@", "|x", "&x", `"unterminated`, `"bad\q"`, "\"nl\n\""}
	for _, src := range tests {
		lx := newLexer(src)
		var err error
		for i := 0; i < 10; i++ {
			var tk token
			tk, err = lx.next()
			if err != nil || tk.kind == tokEOF {
				break
			}
		}
		if err == nil {
			t.Errorf("lexing %q did not fail", src)
		}
	}
}

// ---------- parser ----------

func TestParseMinimalSpec(t *testing.T) {
	f, err := Parse(`spec R "doc" { assert x > 0 }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(f.Specs) != 1 || f.Specs[0].Name != "R" || f.Specs[0].Description != "doc" {
		t.Fatalf("parsed %+v", f.Specs)
	}
}

func TestParseFullSpec(t *testing.T) {
	src := `
const limit = 0.5
const negative = -3

spec Rule "with everything" {
  let d = delta(x)
  warmup 100ms
  warmup 200ms on rise(b)
  severity d
  assert (b -> d <= limit) && eventually[0:400ms](d <= 0)
  assert !b || x >= negative
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	s := f.Specs[0]
	if len(s.Lets) != 1 || len(s.Warmups) != 2 || s.Severity == nil || len(s.Asserts) != 2 {
		t.Fatalf("parsed spec %+v", s)
	}
	if f.Consts[1].Value != -3 {
		t.Errorf("negative const = %v", f.Consts[1].Value)
	}
}

func TestParseMonitor(t *testing.T) {
	src := `
monitor M "headway" {
  let h = range / v
  initial state Normal {
    when b && h < 1.0 => Low
  }
  state Low {
    when !b || h >= 1.0 => Normal
    after 5s => violate "not recovered"
  }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := f.Monitors[0]
	if len(m.States) != 2 || !m.States[0].Initial {
		t.Fatalf("states: %+v", m.States)
	}
	low := m.States[1]
	if len(low.Transitions) != 2 {
		t.Fatalf("transitions: %+v", low.Transitions)
	}
	if low.Transitions[1].Kind != TransAfter || low.Transitions[1].Deadline != 5*time.Second || !low.Transitions[1].Violate {
		t.Errorf("after transition: %+v", low.Transitions[1])
	}
}

func TestParseViolateThen(t *testing.T) {
	src := `
monitor M {
  state A {
    when x > 0 => violate "boom" then B
  }
  state B {
    when x <= 0 => A
  }
}`
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	tr := f.Monitors[0].States[0].Transitions[0]
	if !tr.Violate || tr.Target != "B" || tr.Msg != "boom" {
		t.Errorf("transition: %+v", tr)
	}
}

func TestParsePrecedence(t *testing.T) {
	f, err := Parse(`spec R { assert a || b && c -> d }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	// Top node must be the implication.
	top, ok := f.Specs[0].Asserts[0].(*Binary)
	if !ok || top.Op != tokArrow {
		t.Fatalf("top = %+v", f.Specs[0].Asserts[0])
	}
	or, ok := top.L.(*Binary)
	if !ok || or.Op != tokOr {
		t.Fatalf("lhs = %+v", top.L)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != tokAnd {
		t.Fatalf("or rhs = %+v", or.R)
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	f, err := Parse(`spec R { assert a + b * c < d }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	cmp, ok := f.Specs[0].Asserts[0].(*Binary)
	if !ok || cmp.Op != tokLT {
		t.Fatalf("top = %+v", f.Specs[0].Asserts[0])
	}
	add, ok := cmp.L.(*Binary)
	if !ok || add.Op != tokPlus {
		t.Fatalf("cmp lhs = %+v", cmp.L)
	}
	if mul, ok := add.R.(*Binary); !ok || mul.Op != tokStar {
		t.Fatalf("add rhs = %+v", add.R)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string
	}{
		{"empty spec", `spec R { }`, "no assert"},
		{"stray token", `garbage`, "expected 'const'"},
		{"unbounded temporal", `spec R { assert always(x) }`, "requires a bound"},
		{"bad bounds", `spec R { assert always[5s:1s](x) }`, "invalid temporal bounds"},
		{"monitor no states", `monitor M { }`, "no states"},
		{"after zero", `monitor M { state A { after 0s => violate } }`, "must be positive"},
		{"missing arrow", `monitor M { state A { when x A } }`, "'=>'"},
		{"bad transition", `monitor M { state A { banana } }`, "'when' or 'after'"},
		{"duplicate severity", `spec R { severity x severity y assert x }`, "duplicate severity"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded", tt.src)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tt.want)
			}
		})
	}
}

// ---------- compile ----------

func TestCompileUnknownIdentifier(t *testing.T) {
	f, err := Parse(`spec R { assert nosuch > 0 }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := Compile(f, []string{"x"}); err == nil {
		t.Fatal("unknown identifier accepted")
	}
}

func TestCompileLetOrdering(t *testing.T) {
	f, err := Parse(`spec R { let a = b let b = x assert a > 0 }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if _, err := Compile(f, []string{"x"}); err == nil {
		t.Fatal("forward let reference accepted")
	}
}

func TestCompileErrors(t *testing.T) {
	tests := []struct {
		name    string
		src     string
		signals []string
		want    string
	}{
		{"dup const", "const a = 1\nconst a = 2\nspec R { assert x }", []string{"x"}, "duplicate const"},
		{"const shadows signal", "const x = 1\nspec R { assert x }", []string{"x"}, "shadows a signal"},
		{"let shadows signal", "spec R { let x = 1 assert x }", []string{"x"}, "shadows a signal"},
		{"dup rule", "spec R { assert x }\nspec R { assert x }", []string{"x"}, "duplicate rule"},
		{"dup state", "monitor M { state A { when x => A } state A { when x => A } }", []string{"x"}, "duplicate state"},
		{"two initials", "monitor M { initial state A { when x => B } initial state B { when x => A } }", []string{"x"}, "multiple initial"},
		{"bad target", "monitor M { state A { when x => Nowhere } }", []string{"x"}, "unknown target"},
		{"no target no violate", "monitor M { state A { when x => violate } }", []string{"x"}, ""}, // valid
		{"bad arity", "spec R { assert min(x) > 0 }", []string{"x"}, "takes 2 argument"},
		{"unknown func", "spec R { assert frob(x) }", []string{"x"}, "unknown function"},
		{"updated non-signal", "spec R { assert updated(x + 1) }", []string{"x"}, "requires a signal name"},
		{"bad warmup", "spec R { warmup 0s assert x }", []string{"x"}, "must be positive"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f, err := Parse(tt.src)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			_, err = Compile(f, tt.signals)
			if tt.want == "" {
				if err != nil {
					t.Fatalf("Compile: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Compile succeeded")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tt.want)
			}
		})
	}
}

func TestRuleSetLookup(t *testing.T) {
	rs := compileOne(t, `spec A { assert x } spec B { assert x }`, "x")
	if len(rs.Rules()) != 2 {
		t.Fatalf("Rules = %d, want 2", len(rs.Rules()))
	}
	if r, ok := rs.Rule("B"); !ok || r.Name != "B" {
		t.Errorf("Rule(B) = %+v, %v", r, ok)
	}
	if _, ok := rs.Rule("C"); ok {
		t.Error("Rule(C) found")
	}
}

// ---------- evaluation ----------

func TestEvalSimpleAssert(t *testing.T) {
	rs := compileOne(t, `spec R { assert x <= 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 0, 1, 2, 0, 0, 3, 0)
	res := evalOne(t, rs, src)
	if !res.Violated() {
		t.Fatal("not violated")
	}
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %+v, want 2 intervals", res.Violations)
	}
	v := res.Violations[0]
	if v.StartStep != 2 || v.EndStep != 4 {
		t.Errorf("first interval [%d,%d), want [2,4)", v.StartStep, v.EndStep)
	}
	if v.Start != 20*time.Millisecond || v.Duration() != 20*time.Millisecond {
		t.Errorf("interval times %v +%v", v.Start, v.Duration())
	}
}

// TestEvalReadsOnlyLoadedSignals pins that a signal only an unused let
// references is never demanded: Eval runs over a source without it,
// and the rule's Signals do not list it.
func TestEvalReadsOnlyLoadedSignals(t *testing.T) {
	rs := compileOne(t, `spec R { let u = y > 0 assert x > 0 }`, "x", "y")
	src := newMemSource(10*time.Millisecond).add("x", 1, 0, 1)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 1 {
		t.Fatalf("violations = %+v, want one at step 1", res.Violations)
	}
	if got := rs.Rules()[0].Signals(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("Signals = %v, want [x]", got)
	}
}

func TestEvalImplication(t *testing.T) {
	rs := compileOne(t, `spec R { assert b -> x <= 0 }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 1, 1, 0).
		add("x", 5, 5, 0, 5)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 1 || res.Violations[0].EndStep != 2 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalNaNComparisonIsFalse(t *testing.T) {
	rs := compileOne(t, `spec R { assert b -> x <= 0 }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 1, 1).
		add("x", math.NaN(), -1)
	res := evalOne(t, rs, src)
	// NaN <= 0 is false, so step 0 violates.
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 0 || res.Violations[0].EndStep != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalNaNAntecedentBenign(t *testing.T) {
	rs := compileOne(t, `spec R { assert x > 5 -> b }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 0).
		add("x", math.NaN(), 1)
	res := evalOne(t, rs, src)
	if res.Violated() {
		t.Fatalf("NaN antecedent produced violations: %+v", res.Violations)
	}
}

func TestEvalArithmetic(t *testing.T) {
	rs := compileOne(t, `const k = 2
spec R { assert x * k + 1 == y }`, "x", "y")
	src := newMemSource(10*time.Millisecond).
		add("x", 1, 2, 3).
		add("y", 3, 5, 8)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 2 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalBuiltins(t *testing.T) {
	rs := compileOne(t, `spec R {
  assert abs(x) >= 0 || true
  assert min(x, y) <= max(x, y)
  assert cond(b, x, y) == cond(!b, y, x)
}`, "x", "y", "b")
	src := newMemSource(10*time.Millisecond).
		add("x", -3, 2, 7).
		add("y", 1, -9, 7).
		add("b", 1, 0, 1)
	res := evalOne(t, rs, src)
	if res.Violated() {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalDeltaNaive(t *testing.T) {
	rs := compileOne(t, `spec R { assert delta(x) <= 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 5, 5, 6, 6, 4)
	res, err := rs.Eval(src, EvalOptions{DeltaMode: DeltaNaive})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Step 0: delta NaN -> NaN <= 0 is false -> violation at step 0.
	// Step 2: 6-5=1 -> violation.
	if len(res[0].Violations) != 2 {
		t.Fatalf("violations = %+v", res[0].Violations)
	}
	if res[0].Violations[1].StartStep != 2 || res[0].Violations[1].EndStep != 3 {
		t.Errorf("second violation = %+v", res[0].Violations[1])
	}
}

func TestEvalDeltaUpdateAwareOnSlowSignal(t *testing.T) {
	// A slow signal updated every 4 steps, increasing at each update.
	vals := []float64{10, 10, 10, 10, 20, 20, 20, 20, 30, 30, 30, 30}
	upd := []bool{true, false, false, false, true, false, false, false, true, false, false, false}
	src := newMemSource(10*time.Millisecond).addWithUpd("x", vals, upd)

	rs := compileOne(t, `spec R { assert delta(x) <= 0 }`, "x")

	// Naive mode: the increase is visible only at update steps 4 and 8.
	naive, err := rs.Eval(src, EvalOptions{DeltaMode: DeltaNaive})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	naiveSteps := 0
	for _, v := range naive[0].Violations {
		naiveSteps += v.Steps()
	}

	// Update-aware mode: the held steps carry the inter-update trend,
	// so the sustained increase is visible at (almost) every step.
	aware, err := rs.Eval(src, EvalOptions{DeltaMode: DeltaUpdateAware})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	awareSteps := 0
	for _, v := range aware[0].Violations {
		awareSteps += v.Steps()
	}
	if awareSteps <= naiveSteps {
		t.Errorf("update-aware steps %d <= naive steps %d; the multi-rate fix is not working", awareSteps, naiveSteps)
	}
	if awareSteps < 8 {
		t.Errorf("update-aware saw only %d violating steps, want the held trend visible", awareSteps)
	}
}

func TestEvalPrevUpdateAware(t *testing.T) {
	vals := []float64{10, 10, 20, 20}
	upd := []bool{true, false, true, false}
	src := newMemSource(10*time.Millisecond).addWithUpd("x", vals, upd)
	rs := compileOne(t, `spec R { assert prev(x) == 10 -> x == 20 }`, "x")
	res, err := rs.Eval(src, EvalOptions{DeltaMode: DeltaUpdateAware})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// prev(x) is NaN until the second update, then 10 at steps 2..3
	// where x is 20: no violations.
	if res[0].Violated() {
		t.Fatalf("violations = %+v", res[0].Violations)
	}
}

func TestEvalRate(t *testing.T) {
	rs := compileOne(t, `spec R { assert rate(x) <= 100.0 || !valid(rate(x)) }`, "x")
	// x rises 2 per 10ms step = 200/s: violation at every step after 0.
	src := newMemSource(10*time.Millisecond).add("x", 0, 2, 4, 6)
	res, err := rs.Eval(src, EvalOptions{DeltaMode: DeltaNaive})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	steps := 0
	for _, v := range res[0].Violations {
		steps += v.Steps()
	}
	if steps != 3 {
		t.Fatalf("violating steps = %d, want 3 (%+v)", steps, res[0].Violations)
	}
}

func TestEvalRiseFallChanged(t *testing.T) {
	rs := compileOne(t, `spec R {
  assert rise(b) -> x == 1
  assert fall(b) -> x == 2
  assert changed(y) -> x == 3
}`, "b", "x", "y")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 1, 1, 0).
		add("x", 0, 1, 0, 2).
		add("y", 5, 5, 5, 5)
	res := evalOne(t, rs, src)
	if res.Violated() {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalUpdatedBuiltin(t *testing.T) {
	vals := []float64{1, 1, 2, 2}
	upd := []bool{true, false, true, false}
	src := newMemSource(10*time.Millisecond).addWithUpd("x", vals, upd)
	rs := compileOne(t, `spec R { assert updated(x) -> true }`, "x")
	res, err := rs.Eval(src, EvalOptions{})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if res[0].Violated() {
		t.Fatal("trivial updated rule violated")
	}
}

func TestEvalEventuallyBounded(t *testing.T) {
	rs := compileOne(t, `spec R { assert b -> eventually[0:30ms](x <= 0) }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 1, 1, 1, 1, 1, 1, 1, 1, 1, 1).
		add("x", 1, 1, 1, 1, 1, 0, 1, 1, 1, 1)
	res := evalOne(t, rs, src)
	// x<=0 only at step 5. eventually[0:3 steps] is true for t in
	// {2,3,4,5}. Steps 0,1 violate. Steps 6..9: window is truncated at
	// step 9 for t in {7,8,9}; step 6's window [6,9] is complete and
	// all false -> violation; steps 7..9 truncated -> benign.
	var steps []int
	for _, v := range res.Violations {
		for s := v.StartStep; s < v.EndStep; s++ {
			steps = append(steps, s)
		}
	}
	want := []int{0, 1, 6}
	if len(steps) != len(want) {
		t.Fatalf("violating steps = %v, want %v", steps, want)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("violating steps = %v, want %v", steps, want)
		}
	}
}

func TestEvalAlwaysBounded(t *testing.T) {
	rs := compileOne(t, `spec R { assert always[0:20ms](x <= 0) }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 0, 0, 1, 0, 0)
	res := evalOne(t, rs, src)
	// Window of 3 steps containing step 3 fails: t in {1,2,3}.
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	if res.Violations[0].StartStep != 1 || res.Violations[0].EndStep != 4 {
		t.Errorf("interval = [%d,%d), want [1,4)", res.Violations[0].StartStep, res.Violations[0].EndStep)
	}
}

func TestEvalWarmupFromStart(t *testing.T) {
	rs := compileOne(t, `spec R { warmup 30ms assert x <= 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 1, 1, 1, 1, 1)
	res := evalOne(t, rs, src)
	if res.StepsSuppressed != 3 {
		t.Errorf("suppressed = %d, want 3", res.StepsSuppressed)
	}
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 3 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalWarmupOnRisingEdge(t *testing.T) {
	rs := compileOne(t, `spec R { warmup 20ms on rise(b) assert b -> x <= 0 }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 0, 1, 1, 1, 1).
		add("x", 9, 9, 9, 9, 9, 0)
	res := evalOne(t, rs, src)
	// b rises at step 2; steps 2,3 suppressed; step 4 violates.
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 4 || res.Violations[0].EndStep != 5 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestEvalSeverityPeak(t *testing.T) {
	rs := compileOne(t, `spec R { severity x assert x <= 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 2, 7, 3, 0)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	if res.Violations[0].Peak != 7 {
		t.Errorf("peak = %v, want 7", res.Violations[0].Peak)
	}
}

func TestEvalMissingSignal(t *testing.T) {
	rs := compileOne(t, `spec R { assert x > 0 }`, "x")
	src := newMemSource(10*time.Millisecond).add("y", 1)
	if _, err := rs.Eval(src, EvalOptions{}); err == nil {
		t.Fatal("missing trace signal accepted")
	}
}

// ---------- monitors ----------

func TestMonitorDeadlineViolation(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state Normal {
    when x < 1.0 => Low
  }
  state Low {
    when x >= 1.0 => Normal
    after 50ms => violate "stuck low"
  }
}`, "x")
	// x drops below 1.0 at step 2 and stays low for 10 steps.
	vals := []float64{2, 2, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 2, 2}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	v := res.Violations[0]
	// Enters Low effective step 3 (transition at step 2, dwell counts
	// from 3); deadline 5 steps later at step 8; continuous until
	// recovery at step 12.
	if v.StartStep != 8 || v.EndStep != 12 {
		t.Errorf("interval [%d,%d), want [8,12)", v.StartStep, v.EndStep)
	}
	if v.Msg != "stuck low" {
		t.Errorf("msg = %q", v.Msg)
	}
}

func TestMonitorRecoveryBeforeDeadline(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state Normal {
    when x < 1.0 => Low
  }
  state Low {
    when x >= 1.0 => Normal
    after 50ms => violate
  }
}`, "x")
	vals := []float64{2, 0.5, 0.5, 0.5, 2, 2, 2, 2, 2, 2}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	res := evalOne(t, rs, src)
	if res.Violated() {
		t.Fatalf("recovered in time but got violations: %+v", res.Violations)
	}
}

func TestMonitorWhenViolate(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state A {
    when x > 0 => violate "positive"
  }
}`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 1, 1, 0, 1)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestMonitorViolateThenTransition(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state A {
    when x > 0 => violate "pos" then B
  }
  state B {
    when x <= 0 => A
  }
}`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 1, 1, 1, 0, 1)
	res := evalOne(t, rs, src)
	// Violation at step 0 only (moves to B), back to A at step 3,
	// violation again at step 4.
	if len(res.Violations) != 2 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	if res.Violations[0].Steps() != 1 || res.Violations[1].StartStep != 4 {
		t.Errorf("violations = %+v", res.Violations)
	}
}

func TestMonitorTransitionOrderMatters(t *testing.T) {
	// Recovery listed before the deadline: recovery wins on the exact
	// deadline step.
	rs := compileOne(t, `
monitor M {
  initial state Normal {
    when x < 1.0 => Low
  }
  state Low {
    when x >= 1.0 => Normal
    after 30ms => violate
  }
}`, "x")
	vals := []float64{2, 0.5, 0.5, 0.5, 2, 2}
	src := newMemSource(10*time.Millisecond).add("x", vals...)
	res := evalOne(t, rs, src)
	if res.Violated() {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestMonitorAfterTransitionToState(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state A {
    after 20ms => B
  }
  state B {
    when x > 0 => violate "in B"
  }
}`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 1, 1, 1, 1, 1, 1)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	// The transition fires at step 2 and consumes that step; B's guard
	// is first evaluated at step 3.
	if res.Violations[0].StartStep != 3 {
		t.Errorf("violation starts at %d, want 3", res.Violations[0].StartStep)
	}
}

func TestMonitorWarmupSuppression(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  warmup 30ms
  initial state A {
    when x > 0 => violate
  }
}`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 1, 1, 1, 1, 1)
	res := evalOne(t, rs, src)
	if len(res.Violations) != 1 || res.Violations[0].StartStep != 3 {
		t.Fatalf("violations = %+v", res.Violations)
	}
}

func TestRuleNames(t *testing.T) {
	f, err := Parse(`spec A { assert x } monitor B { state S { when x => violate } }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	names := f.RuleNames()
	if len(names) != 2 || names[0] != "A" || names[1] != "B" {
		t.Errorf("RuleNames = %v", names)
	}
}

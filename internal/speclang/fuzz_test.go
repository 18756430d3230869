package speclang

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// FuzzParse exercises the lexer and parser with arbitrary input: they
// must return an error or a File, never panic, and anything that parses
// must survive a format/reparse round trip. The seed corpus covers
// every syntactic construct; `go test` runs the seeds, and
// `go test -fuzz=FuzzParse ./internal/speclang` explores further.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"",
		"spec R { assert x }",
		`const k = -1.5
spec R "d" {
    let d = delta(x)
    warmup 100ms on rise(b)
    severity abs(d)
    assert (b -> d <= k) && eventually[0:400ms](d <= 0)
}`,
		`monitor M {
    initial state A { when always[0:30ms](x) => violate "m" then B }
    state B { after 5s => A }
}`,
		"spec P { assert once[20ms:60ms](x) || historically[0:10ms](x) }",
		"spec Q { assert cond(a, min(x, y), max(x, y)) != 0 / 0 }",
		"spec Bad { assert ",
		"monitor Bad { state A {",
		"spec S { assert 1e309 > 4.9e-324 }",
		"spec U { assert updated(x) && valid(x) }",
		"// just a comment",
		"spec R { assert \"string where expr expected\" }",
		"spec R { assert x } spec R { assert x }",
		"const a = 1 const a = 2",
		"spec W { warmup 0ms assert x }",
		"spec N { assert !!!x == --x }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := Format(file)
		if _, err := Parse(printed); err != nil {
			t.Fatalf("formatted output does not reparse: %v\n--- input ---\n%q\n--- output ---\n%s", err, src, printed)
		}
	})
}

// FuzzSpecParser is the rollout-facing contract: arbitrary bytes
// pushed at `monitorctl spec push` reach Parse and then Compile, and
// the refusal must always be a positioned *Error (never a panic, never
// a bare error the operator can't locate in their file). Accepted
// input must additionally survive the full pipeline the registry runs:
// format, reparse, recompile.
func FuzzSpecParser(f *testing.F) {
	seeds := []string{
		"garbage at top level",
		"spec NoAssert {\n    let d = delta(x)\n}",
		"spec U {\n    assert always(x)\n}",
		"spec R {\n    assert eventually[5s:1s](x)\n}",
		"spec S \"unterminated {\n    assert x\n}",
		"monitor M {\n    initial state A {\n        when x => violate \"m\" then A",
		"const limit = fast\nspec R { assert x < limit }",
		"spec D {\n    severity x\n    severity y\n    assert x\n}",
		"spec OK { assert eventually[0:400ms](x > 0) }",
		"spec OK2 { warmup 100ms on rise(b) assert b -> valid(x) }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	signals := []string{"x", "y", "b"}
	f.Fuzz(func(t *testing.T, src string) {
		file, err := Parse(src)
		if err != nil {
			var pe *Error
			if !errors.As(err, &pe) {
				t.Fatalf("Parse returned %T, want *Error: %v", err, err)
			}
			if pe.Line < 1 || pe.Col < 1 {
				t.Fatalf("unpositioned parse error %d:%d: %s", pe.Line, pe.Col, pe.Msg)
			}
			return
		}
		rs, err := Compile(file, signals)
		if err != nil {
			return // semantic rejection is fine; panics are not
		}
		_ = rs
		reparsed, err := Parse(Format(file))
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v", err)
		}
		if _, err := Compile(reparsed, signals); err != nil {
			t.Fatalf("formatted output does not recompile: %v\n--- input ---\n%q", err, src)
		}
	})
}

// FuzzStreamSemantics checks the compiled stream checker against the
// reference semantics over random specs and random multi-rate traces,
// in both delta modes: RuleSet.Eval must reproduce refEval's
// violations, peaks and suppressed and activation counts. seed draws
// the trace and, unless ruleSrc parses and compiles over x and a, a
// random spec as well. A divergence is a stream-compiler bug; its
// input belongs in testdata/fuzz/FuzzStreamSemantics once fixed.
func FuzzStreamSemantics(f *testing.F) {
	for i, src := range randomizedRules {
		f.Add(int64(i), src)
	}
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, "")
	}
	f.Fuzz(func(t *testing.T, seed int64, ruleSrc string) {
		rng := rand.New(rand.NewSource(seed))
		var rs *RuleSet
		if file, err := Parse(ruleSrc); err == nil {
			rs, _ = Compile(file, []string{"x", "a"})
		}
		if rs == nil {
			ruleSrc = Format(randomSpec(rng))
			file, err := Parse(ruleSrc)
			if err != nil {
				t.Fatalf("random spec does not parse: %v\n%s", err, ruleSrc)
			}
			if rs, err = Compile(file, []string{"x", "a"}); err != nil {
				t.Fatalf("random spec does not compile: %v\n%s", err, ruleSrc)
			}
		}
		src := randomSource(rng, 1+rng.Intn(120))
		for _, mode := range []DeltaMode{DeltaNaive, DeltaUpdateAware} {
			if err := checkEquivalent(rs, src, EvalOptions{DeltaMode: mode}); err != nil {
				t.Fatalf("%v\n--- spec ---\n%s", err, ruleSrc)
			}
		}
	})
}

// randomSpec builds a random rule file over the signals x and a: a spec
// with one to three asserts, some of them implications, optional
// warmups and severity, and a two-state monitor whose second state has
// a random guard and a violating deadline.
func randomSpec(rng *rand.Rand) *File {
	expr := func() Expr { return randomExpr(rng, 1+rng.Intn(4), []string{"x", "a"}) }
	warmups := func() []Warmup {
		var ws []Warmup
		for i := rng.Intn(3); i > 0; i-- {
			w := Warmup{Window: time.Duration(1+rng.Intn(6)) * 10 * time.Millisecond}
			if rng.Intn(2) == 0 {
				w.On = expr()
			}
			ws = append(ws, w)
		}
		return ws
	}
	severity := func() Expr {
		if rng.Intn(2) == 0 {
			return expr()
		}
		return nil
	}
	spec := Spec{Name: "S", Warmups: warmups(), Severity: severity()}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		a := expr()
		if rng.Intn(2) == 0 {
			a = &Binary{Op: tokArrow, L: expr(), R: a}
		}
		spec.Asserts = append(spec.Asserts, a)
	}
	mon := Monitor{Name: "M", Warmups: warmups(), Severity: severity(), States: []State{
		{Name: "A", Initial: true, Transitions: []Transition{
			{Kind: TransWhen, Guard: expr(), Violate: rng.Intn(3) == 0, Target: "B"},
		}},
		{Name: "B", Transitions: []Transition{
			{Kind: TransWhen, Guard: expr(), Target: "A"},
			{Kind: TransAfter, Deadline: time.Duration(1+rng.Intn(8)) * 10 * time.Millisecond, Violate: true, Msg: "stuck"},
		}},
	}}
	return &File{Specs: []Spec{spec}, Monitors: []Monitor{mon}}
}

package speclang

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
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
// random spec as well. cuts partitions the trace into checker blocks
// (see driveBlocks), so windows, delay lines and warmups straddle block
// edges: that run must agree with the reference too, and yield the
// same event sequence as whole blocks. A divergence is a
// stream-compiler bug; its input belongs in
// testdata/fuzz/FuzzStreamSemantics once fixed.
func FuzzStreamSemantics(f *testing.F) {
	partitions := [][]byte{nil, {0}, {1}, {2, 33, 34, 35}, {7, 1, 0, 66, 40}}
	for i, src := range randomizedRules {
		f.Add(int64(i), src, partitions[i%len(partitions)])
	}
	for seed := int64(0); seed < 10; seed++ {
		f.Add(seed, "", partitions[seed%int64(len(partitions))])
	}
	f.Fuzz(func(t *testing.T, seed int64, ruleSrc string, cuts []byte) {
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
			opts := EvalOptions{DeltaMode: mode}
			if err := checkEquivalent(rs, src, opts); err != nil {
				t.Fatalf("%v\n--- spec ---\n%s", err, ruleSrc)
			}
			if err := checkBlocks(rs, src, opts, cuts); err != nil {
				t.Fatalf("cuts %v: %v\n--- spec ---\n%s", cuts, err, ruleSrc)
			}
		}
	})
}

// checkBlocks runs src through the checker cut into blocks by cuts and
// in whole blocks, and requires both runs to give the same events in
// the same order, and the cut run to reproduce refEval.
func checkBlocks(rs *RuleSet, src *memSource, opts EvalOptions, cuts []byte) error {
	want, err := refEval(rs, src, opts)
	if err != nil {
		return fmt.Errorf("reference: %v", err)
	}
	whole, _, err := driveBlocks(rs, src, opts, nil)
	if err != nil {
		return err
	}
	events, got, err := driveBlocks(rs, src, opts, cuts)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(events, whole) {
		return fmt.Errorf("delta mode %d: events differ from whole blocks\ncut:   %+v\nwhole: %+v", opts.DeltaMode, events, whole)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Errorf("rule %s (delta mode %d) diverges from the reference\ncut:       %+v\nreference: %+v",
				want[i].Name, opts.DeltaMode, got[i], want[i])
		}
	}
	return nil
}

// driveBlocks runs src through a new checker and returns its events and
// per-rule results. Each byte b of cuts, taken in turn and cyclically,
// cuts the next block: b%(2*blockSteps+3) is 0 for one Step row run
// with timing armed, 1 for one Step row, and otherwise one more than
// the number of rows pushed before a Flush; the Push+Flush cuts of an
// odd count of rows run armed. With no cuts every row is pushed, so the
// checker runs full blocks and Finish runs the rest. Timing must not
// change a single event.
func driveBlocks(rs *RuleSet, src *memSource, opts EvalOptions, cuts []byte) ([]Event, []RuleResult, error) {
	names := make([]string, 0, len(src.vals))
	for name := range src.vals {
		names = append(names, name)
	}
	sort.Strings(names)
	sc, err := rs.NewStreamChecker(names, src.StepPeriod(), opts)
	if err != nil {
		return nil, nil, err
	}
	vals, upd := make([]float64, len(names)), make([]bool, len(names))
	nanos := make([]int64, sc.NumRules())
	var events []Event
	row := 0
	next := func() bool {
		if row == src.NumSteps() {
			return false
		}
		for i, name := range names {
			vals[i], upd[i] = src.vals[name][row], src.upd[name][row]
		}
		row++
		return true
	}
	for c := 0; row < src.NumSteps(); c++ {
		var evs []Event
		switch b := 2*blockSteps + 3; {
		case len(cuts) == 0:
			next()
			evs, err = sc.Push(vals, upd)
		case int(cuts[c%len(cuts)])%b == 0:
			next()
			if err = sc.Time(nanos); err != nil {
				return nil, nil, err
			}
			evs, err = sc.Step(vals, upd)
		case int(cuts[c%len(cuts)])%b == 1:
			next()
			evs, err = sc.Step(vals, upd)
		default:
			n := int(cuts[c%len(cuts)])%b - 1
			if n%2 == 1 {
				if err = sc.Time(nanos); err != nil {
					return nil, nil, err
				}
			}
			for ; n > 0 && next(); n-- {
				var pushed []Event
				if pushed, err = sc.Push(vals, upd); err != nil {
					return nil, nil, err
				}
				events = append(events, pushed...)
			}
			evs, err = sc.Flush()
		}
		_ = sc.Time(nil) // disarming cannot fail
		if err != nil {
			return nil, nil, err
		}
		events = append(events, evs...)
	}
	evs, err := sc.Finish()
	if err != nil {
		return nil, nil, err
	}
	events = append(events, evs...)
	results := sc.Summary()
	for _, e := range events {
		if e.Kind != ViolationEnd {
			continue
		}
		for i := range results {
			if results[i].Name == e.Rule {
				results[i].Violations = append(results[i].Violations, e.Violation)
			}
		}
	}
	return events, results, nil
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

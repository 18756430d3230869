package speclang

import (
	"fmt"
	"math"
	"time"
)

// Source provides the aligned, zero-order-hold view of a recorded trace
// that RuleSet.Eval steps the rules through, row by row. trace.Grid
// satisfies it.
type Source interface {
	// NumSteps returns the number of evaluation steps.
	NumSteps() int
	// StepPeriod returns the step size.
	StepPeriod() time.Duration
	// Values returns the held value vector for a signal.
	Values(name string) ([]float64, bool)
	// Updated returns the per-step freshness vector for a signal.
	Updated(name string) ([]bool, bool)
}

// DeltaMode selects the semantics of prev/delta/rate/changed over
// multi-rate data.
type DeltaMode int

const (
	// DeltaUpdateAware computes differences between consecutive signal
	// *updates*, so a slow signal's trend is visible at every step.
	// This is the paper's fix for the Section V.C.1 sampling trap and
	// the default.
	DeltaUpdateAware DeltaMode = iota
	// DeltaNaive computes differences between consecutive grid steps.
	// Held values of slow signals then look constant for most steps:
	// increases are missed, exactly the failure mode the paper
	// describes. Kept for the ablation experiment.
	DeltaNaive
)

// EvalOptions tunes rule evaluation.
type EvalOptions struct {
	// DeltaMode selects multi-rate difference semantics.
	DeltaMode DeltaMode
}

// Violation is one contiguous interval of rule violation.
type Violation struct {
	// StartStep and EndStep delimit the violating steps [start, end).
	StartStep, EndStep int
	// Start and End are the corresponding times.
	Start, End time.Duration
	// Peak is the maximum absolute severity over the interval, when the
	// rule declares a severity expression (0 otherwise).
	Peak float64
	// Msg describes the violated clause.
	Msg string
}

// Steps returns the number of violating steps in the interval.
func (v Violation) Steps() int { return v.EndStep - v.StartStep }

// Duration returns the violation duration.
func (v Violation) Duration() time.Duration { return v.End - v.Start }

// RuleResult is the verdict of one rule over one trace.
type RuleResult struct {
	// Name and Description identify the rule.
	Name        string
	Description string
	// Violations lists the violation intervals, in time order.
	Violations []Violation
	// StepsChecked is the number of evaluated steps.
	StepsChecked int
	// StepsSuppressed is the number of steps masked by warmup windows.
	StepsSuppressed int
	// ActivationSteps counts the steps at which the rule was actually
	// exercised: for a spec, some assert's top-level antecedent held
	// (an assert without an implication counts every step); for a
	// monitor, the machine was outside its initial state. A satisfied
	// rule with zero activation is *vacuously* satisfied — the trace
	// never tested it — which is weaker oracle evidence, a distinction
	// that matters when test results feed a safety case.
	ActivationSteps int
}

// Vacuous reports whether the rule was satisfied without ever being
// exercised.
func (r RuleResult) Vacuous() bool {
	return !r.Violated() && r.ActivationSteps == 0
}

// ActivationRatio returns the fraction of checked steps at which the
// rule was exercised.
func (r RuleResult) ActivationRatio() float64 {
	if r.StepsChecked == 0 {
		return 0
	}
	return float64(r.ActivationSteps) / float64(r.StepsChecked)
}

// Violated reports whether the rule was violated anywhere ("V" in the
// paper's Table I; otherwise "S").
func (r RuleResult) Violated() bool { return len(r.Violations) > 0 }

// Eval compiles the rule set for the source's step period and runs it
// over the source: NewProgram then Program.Eval.
func (rs *RuleSet) Eval(src Source, opts EvalOptions) ([]RuleResult, error) {
	p, err := rs.NewProgram(src.StepPeriod(), opts)
	if err != nil {
		return nil, err
	}
	return p.Eval(src)
}

// Eval runs every rule over the source by pushing its rows through a
// new checker, which runs them in full blocks: the signals the rules
// load are read from the source, and the closed violations are
// gathered per rule beside the checker's step accounting. A loaded
// signal the source lacks is an error, as is a source whose step period
// is not the program's.
func (p *Program) Eval(src Source) ([]RuleResult, error) {
	if src.StepPeriod() != p.period {
		return nil, fmt.Errorf("speclang: source steps %v, program steps %v", src.StepPeriod(), p.period)
	}
	names := p.signals()
	cols := make([][]float64, len(names))
	fresh := make([][]bool, len(names))
	for i, name := range names {
		v, ok := src.Values(name)
		u, uok := src.Updated(name)
		if !ok || !uok {
			return nil, fmt.Errorf("speclang: signal %q is not present in the trace", name)
		}
		cols[i], fresh[i] = v, u
	}
	sc, err := p.NewChecker(names)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int, len(p.rules))
	for i := range p.rules {
		index[p.rules[i].rule.Name] = i
	}
	violations := make([][]Violation, len(p.rules))
	collect := func(events []Event) {
		for _, e := range events {
			if e.Kind == ViolationEnd {
				i := index[e.Rule]
				violations[i] = append(violations[i], e.Violation)
			}
		}
	}
	vals := make([]float64, len(names))
	upd := make([]bool, len(names))
	for t := 0; t < src.NumSteps(); t++ {
		for i := range names {
			vals[i], upd[i] = cols[i][t], fresh[i][t]
		}
		events, err := sc.Push(vals, upd)
		if err != nil {
			return nil, err
		}
		collect(events)
	}
	events, err := sc.Finish()
	if err != nil {
		return nil, err
	}
	collect(events)
	out := sc.Summary()
	for i := range out {
		out[i].Violations = violations[i]
	}
	return out, nil
}

func truthy(v float64) bool {
	return v != 0 && !math.IsNaN(v)
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

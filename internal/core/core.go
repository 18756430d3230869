// Package core is the monitor engine: the paper's primary contribution.
//
// It binds a compiled rule set to recorded network traffic and renders
// partial-oracle verdicts. The engine is strictly passive: its entire
// view of the system under test is a CAN frame log plus the signal
// database needed to decode it. It never imports the plant, the feature
// under test, or the testbench.
//
// Beyond plain evaluation the engine implements the practical machinery
// the paper identifies as necessary for CPS test oracles:
//
//   - multi-rate sampling handling (update-aware differences so slow
//     frames don't read as constant — Section V.C.1),
//   - warm-up after discrete value jumps and mode changes (via the
//     specification language's warmup clauses — Section V.C.2),
//   - violation triage by intensity and duration, to separate real
//     safety problems from overly-strict rules (Section V.A),
//   - intent approximation with tunable amplitude/duration thresholds
//     (Section V.A).
package core

import (
	"errors"
	"fmt"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
)

// Verdict is the per-rule oracle outcome, matching the paper's Table I
// notation: S (satisfied by the trace) or V (violated).
type Verdict int

const (
	// Satisfied means no violation interval was found.
	Satisfied Verdict = iota + 1
	// Violated means at least one violation interval was found.
	Violated
)

// String returns "S" or "V".
func (v Verdict) String() string {
	switch v {
	case Satisfied:
		return "S"
	case Violated:
		return "V"
	default:
		return "?"
	}
}

// MarshalJSON encodes the verdict in the paper's notation.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// UnmarshalJSON decodes "S" or "V".
func (v *Verdict) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"S"`:
		*v = Satisfied
	case `"V"`:
		*v = Violated
	default:
		return fmt.Errorf("core: unknown verdict %s", data)
	}
	return nil
}

// Class is the triage classification of one violation.
type Class int

const (
	// ClassReal is a violation that triage could not explain away: a
	// candidate real safety problem.
	ClassReal Class = iota + 1
	// ClassTransient is an extremely short violation (a cycle blip),
	// which the paper notes "may be tolerated in an operational
	// vehicle" but is worth recording as a latent-bug clue.
	ClassTransient
	// ClassNegligible is a violation whose peak severity is below the
	// rule's negligible threshold — the "negligibly sized increases"
	// of Section IV.A, evidence of an overly strict rule rather than
	// of an unsafe system.
	ClassNegligible
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassReal:
		return "real"
	case ClassTransient:
		return "transient"
	case ClassNegligible:
		return "negligible"
	default:
		return "unknown"
	}
}

// MarshalJSON encodes the class name.
func (c Class) MarshalJSON() ([]byte, error) {
	return []byte(`"` + c.String() + `"`), nil
}

// UnmarshalJSON decodes a class name.
func (c *Class) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"real"`:
		*c = ClassReal
	case `"transient"`:
		*c = ClassTransient
	case `"negligible"`:
		*c = ClassNegligible
	default:
		return fmt.Errorf("core: unknown class %s", data)
	}
	return nil
}

// Triage holds the per-rule thresholds used to classify violations.
type Triage struct {
	// TransientMax is the maximum duration of a violation classified
	// as transient. Zero disables the transient class.
	TransientMax time.Duration
	// NegligiblePeak is the severity magnitude below which a violation
	// is classified negligible. Zero disables the negligible class
	// (sensible for rules without a severity clause).
	NegligiblePeak float64
}

// Classify applies the thresholds to one violation.
func (tr Triage) Classify(v speclang.Violation) Class {
	if tr.TransientMax > 0 && v.Duration() <= tr.TransientMax {
		return ClassTransient
	}
	if tr.NegligiblePeak > 0 && v.Peak < tr.NegligiblePeak {
		return ClassNegligible
	}
	return ClassReal
}

// Config assembles a monitor.
type Config struct {
	// Rules is the compiled rule set; required.
	Rules *speclang.RuleSet
	// Period is the evaluation grid step; defaults to the fast frame
	// period of the vehicle network.
	Period time.Duration
	// DeltaMode selects multi-rate difference semantics; defaults to
	// update-aware (the paper's fix).
	DeltaMode speclang.DeltaMode
	// Triage maps rule names to triage thresholds. Rules without an
	// entry classify every violation as real.
	Triage map[string]Triage
}

// Monitor is a bolt-on passive test oracle.
//
// A Monitor is safe for concurrent use: CheckTrace/CheckGrid/CheckLog
// and Online may run from many goroutines over one instance (the
// campaign drivers, the recheck shards and the fleet sessions do). New
// compiles the rule set once into a Program that no one writes; each
// call opens its own stream checker over it, the one evaluator behind
// every entry point, and so allocates only that checker's state.
type Monitor struct {
	rules  *speclang.RuleSet
	prog   *speclang.Program
	period time.Duration
	mode   speclang.DeltaMode
	triage map[string]Triage
}

// New builds a monitor from the configuration.
func New(cfg Config) (*Monitor, error) {
	if cfg.Rules == nil {
		return nil, errors.New("core: config requires Rules")
	}
	if cfg.Period == 0 {
		cfg.Period = sigdb.FastPeriod
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("core: non-positive period %v", cfg.Period)
	}
	if cfg.Triage == nil {
		cfg.Triage = make(map[string]Triage)
	}
	prog, err := cfg.Rules.NewProgram(cfg.Period, speclang.EvalOptions{DeltaMode: cfg.DeltaMode})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Monitor{
		rules:  cfg.Rules,
		prog:   prog,
		period: cfg.Period,
		mode:   cfg.DeltaMode,
		triage: cfg.Triage,
	}, nil
}

// RuleReport is the oracle outcome for one rule over one trace.
type RuleReport struct {
	// Result is the raw evaluation result.
	Result speclang.RuleResult
	// Verdict is S or V.
	Verdict Verdict
	// Classes classifies each violation in Result.Violations.
	Classes []Class
}

// Name returns the rule name.
func (r RuleReport) Name() string { return r.Result.Name }

// Count returns the number of violations with the given class.
func (r RuleReport) Count(c Class) int {
	n := 0
	for _, cl := range r.Classes {
		if cl == c {
			n++
		}
	}
	return n
}

// RealViolations reports whether any violation survived triage.
func (r RuleReport) RealViolations() bool { return r.Count(ClassReal) > 0 }

// Vacuous reports whether the rule passed without ever being exercised
// — an "S" that provides no safety-case evidence because the test never
// drove the system into the rule's antecedent.
func (r RuleReport) Vacuous() bool { return r.Result.Vacuous() }

// Report is the oracle outcome for a full trace.
type Report struct {
	// Rules holds one report per rule, in rule-set order.
	Rules []RuleReport
	// Steps is the number of evaluated grid steps.
	Steps int
	// Period is the evaluation grid step size.
	Period time.Duration
}

// Rule returns the report for the named rule.
func (r *Report) Rule(name string) (RuleReport, bool) {
	for _, rr := range r.Rules {
		if rr.Name() == name {
			return rr, true
		}
	}
	return RuleReport{}, false
}

// Verdicts returns the per-rule verdicts in rule order, e.g. for a
// Table I row.
func (r *Report) Verdicts() []Verdict {
	out := make([]Verdict, len(r.Rules))
	for i, rr := range r.Rules {
		out[i] = rr.Verdict
	}
	return out
}

// AnyViolated reports whether any rule was violated.
func (r *Report) AnyViolated() bool {
	for _, rr := range r.Rules {
		if rr.Verdict == Violated {
			return true
		}
	}
	return false
}

// AnyReal reports whether any rule has a violation that survived
// triage.
func (r *Report) AnyReal() bool {
	for _, rr := range r.Rules {
		if rr.RealViolations() {
			return true
		}
	}
	return false
}

// CheckTrace evaluates every rule over a recorded trace.
func (m *Monitor) CheckTrace(tr *trace.Trace) (*Report, error) {
	grid, err := trace.Align(tr, m.period)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m.CheckGrid(grid)
}

// CheckGrid evaluates every rule over an already-aligned grid, stepping
// a stream checker through it row by row. A grid at the monitor's
// period runs on the monitor's program; any other period compiles one.
func (m *Monitor) CheckGrid(grid *trace.Grid) (*Report, error) {
	var results []speclang.RuleResult
	var err error
	if grid.StepPeriod() == m.period {
		results, err = m.prog.Eval(grid)
	} else {
		results, err = m.rules.Eval(grid, speclang.EvalOptions{DeltaMode: m.mode})
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return m.report(results, grid.NumSteps(), grid.StepPeriod()), nil
}

// CheckLog evaluates every rule over a CAN frame log decoded with the
// signal database. This is the complete bolt-on pipeline: bus capture
// in, verdicts out. The log is replayed through an online session, so
// the offline report comes from the same decode path and evaluator as a
// live one; its steps are the grid steps trace.Align would produce.
func (m *Monitor) CheckLog(log *can.Log, db *sigdb.DB) (*Report, error) {
	o, err := m.Online(db)
	if err != nil {
		return nil, err
	}
	index := make(map[string]int)
	for i, name := range m.RuleNames() {
		index[name] = i
	}
	violations := make([][]speclang.Violation, len(index))
	collect := func(events []OnlineEvent) {
		for _, e := range events {
			if e.Kind == speclang.ViolationEnd {
				i := index[e.Rule]
				violations[i] = append(violations[i], e.Violation)
			}
		}
	}
	// A can.Log refuses out-of-order appends, so no frame is skipped.
	events, _, err := o.PushFrames(log.Frames())
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	collect(events)
	if events, err = o.Close(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	collect(events)
	results := o.sc.Summary()
	for i := range results {
		results[i].Violations = violations[i]
	}
	return m.report(results, o.pending, m.period), nil
}

// report triages each rule's violations and assembles the report.
func (m *Monitor) report(results []speclang.RuleResult, steps int, period time.Duration) *Report {
	rep := &Report{Steps: steps, Period: period}
	for _, res := range results {
		rr := RuleReport{Result: res, Verdict: Satisfied}
		if res.Violated() {
			rr.Verdict = Violated
		}
		tri := m.triage[res.Name]
		rr.Classes = make([]Class, len(res.Violations))
		for i, v := range res.Violations {
			rr.Classes[i] = tri.Classify(v)
		}
		rep.Rules = append(rep.Rules, rr)
	}
	return rep
}

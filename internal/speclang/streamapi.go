package speclang

import (
	"fmt"
	"time"
)

// StreamChecker evaluates a compiled rule set: aligned steps are pushed
// one at a time and violation events come back with a delay bounded by
// each rule's temporal horizon. It is the only rule evaluator: RuleSet.Eval
// drives it over the rows of a recorded source, and the online monitor
// over the steps of a live frame stream.
type StreamChecker struct {
	period time.Duration
	names  []string
	index  map[string]int
	rules  []*ruleStream
	steps  int
	done   bool

	// evbuf is reused across Step calls so a steady-state step performs
	// no allocation.
	evbuf []Event
}

// NewStreamChecker builds an online checker over the given signal
// universe (names index the value slices passed to Step).
func (rs *RuleSet) NewStreamChecker(signals []string, period time.Duration, opts EvalOptions) (*StreamChecker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("speclang: non-positive stream period %v", period)
	}
	sc := &StreamChecker{
		period: period,
		names:  append([]string(nil), signals...),
		index:  make(map[string]int, len(signals)),
	}
	for i, n := range signals {
		sc.index[n] = i
	}
	for _, r := range rs.rules {
		st, err := newRuleStream(r, sc.index, period, opts)
		if err != nil {
			return nil, err
		}
		sc.rules = append(sc.rules, st)
	}
	return sc, nil
}

// NumRules returns the number of rules the checker evaluates: the
// length StepTimed expects of its nanos slice.
func (sc *StreamChecker) NumRules() int { return len(sc.rules) }

// Signals returns the signal order expected by Step.
func (sc *StreamChecker) Signals() []string {
	out := make([]string, len(sc.names))
	copy(out, sc.names)
	return out
}

// Step pushes one aligned step: vals holds the held signal values in
// the checker's signal order, upd the per-signal freshness bits. It
// returns any events that became decidable. The returned slice is a
// scratch buffer owned by the checker: it is valid only until the next
// Step, StepTimed or Finish call, so callers that retain events across
// steps must copy them out. Step never reads the clock.
func (sc *StreamChecker) Step(vals []float64, upd []bool) ([]Event, error) {
	if err := sc.checkStep(vals, upd); err != nil {
		return nil, err
	}
	events := sc.evbuf[:0]
	for _, r := range sc.rules {
		events = r.step(vals, upd, sc.steps, events)
	}
	sc.evbuf = events
	sc.steps++
	return events, nil
}

// StepTimed is Step with per-rule timing: nanos[i] receives the
// wall-clock nanoseconds rule i (rule-set order) spent on this step.
// nanos must hold NumRules entries; the caller owns it, so the call
// allocates nothing. The clock is read once before the first rule and
// once after each, so the rule times tile the step back to back.
func (sc *StreamChecker) StepTimed(vals []float64, upd []bool, nanos []int64) ([]Event, error) {
	if err := sc.checkStep(vals, upd); err != nil {
		return nil, err
	}
	if len(nanos) != len(sc.rules) {
		return nil, fmt.Errorf("speclang: timed step carries %d rule slots, want %d", len(nanos), len(sc.rules))
	}
	events := sc.evbuf[:0]
	t := clock()
	for i, r := range sc.rules {
		events = r.step(vals, upd, sc.steps, events)
		now := clock()
		nanos[i] = int64(now.Sub(t))
		t = now
	}
	sc.evbuf = events
	sc.steps++
	return events, nil
}

// clock is StepTimed's time source, a variable so tests can substitute
// a deterministic one.
var clock = time.Now

// checkStep validates one step's input against the checker's state and
// signal universe.
func (sc *StreamChecker) checkStep(vals []float64, upd []bool) error {
	if sc.done {
		return fmt.Errorf("speclang: Step after Finish")
	}
	if len(vals) != len(sc.names) || len(upd) != len(sc.names) {
		return fmt.Errorf("speclang: step carries %d/%d entries, want %d", len(vals), len(upd), len(sc.names))
	}
	return nil
}

// Summary returns each rule's step accounting in rule-set order: name,
// description, steps checked, steps suppressed by warmups, and
// activation steps. Violations stay nil; they arrive as ViolationEnd
// events. The counts cover every step once Finish has returned; before
// that they cover only the steps already decided.
func (sc *StreamChecker) Summary() []RuleResult {
	out := make([]RuleResult, len(sc.rules))
	for i, r := range sc.rules {
		out[i] = RuleResult{
			Name:            r.rule.Name,
			Description:     r.rule.Description,
			StepsChecked:    sc.steps,
			StepsSuppressed: r.suppressed,
			ActivationSteps: r.active,
		}
	}
	return out
}

// Finish drains every rule's pipeline, closes open violations at the
// end of the trace, and returns the remaining events. The checker
// cannot be used afterwards.
func (sc *StreamChecker) Finish() ([]Event, error) {
	if sc.done {
		return nil, fmt.Errorf("speclang: Finish called twice")
	}
	sc.done = true
	var events []Event
	for _, r := range sc.rules {
		events = r.finish(sc.steps, events)
	}
	return events, nil
}

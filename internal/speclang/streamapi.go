package speclang

import (
	"fmt"
	"time"
)

// StreamChecker evaluates a compiled rule set online: aligned steps are
// pushed one at a time and violation events come back with a delay
// bounded by each rule's temporal horizon. It produces exactly the
// violations the offline Eval produces over the same step sequence.
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

	// observe, when set, receives the wall-clock nanoseconds each rule
	// spent inside Step, keyed by rule index in rule-set order. Nil (the
	// default) costs nothing on the hot path.
	observe func(rule int, nanos int64)
}

// Observe installs a per-rule step-latency observer: fn is called once
// per rule per Step with the rule's index (rule-set order) and the
// nanoseconds its incremental evaluation took. Pass nil to remove the
// observer. The callback runs on the Step hot path, so it must not
// block or allocate; metric counters are the intended consumer.
func (sc *StreamChecker) Observe(fn func(rule int, nanos int64)) {
	sc.observe = fn
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
// Step or Finish call, so callers that retain events across steps must
// copy them out.
func (sc *StreamChecker) Step(vals []float64, upd []bool) ([]Event, error) {
	if sc.done {
		return nil, fmt.Errorf("speclang: Step after Finish")
	}
	if len(vals) != len(sc.names) || len(upd) != len(sc.names) {
		return nil, fmt.Errorf("speclang: step carries %d/%d entries, want %d", len(vals), len(upd), len(sc.names))
	}
	k := sc.steps
	events := sc.evbuf[:0]
	if sc.observe == nil {
		for _, r := range sc.rules {
			events = r.step(vals, upd, k, events)
		}
	} else {
		for i, r := range sc.rules {
			t0 := time.Now()
			events = r.step(vals, upd, k, events)
			sc.observe(i, time.Since(t0).Nanoseconds())
		}
	}
	sc.evbuf = events
	sc.steps++
	return events, nil
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

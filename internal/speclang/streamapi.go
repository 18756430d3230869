package speclang

import (
	"fmt"
	"math"
	"time"
)

// StreamChecker evaluates a compiled rule set: aligned steps are pushed
// one at a time and violation events come back with a delay bounded by
// each rule's temporal horizon. It is the only rule evaluator: RuleSet.Eval
// drives it over the rows of a recorded source, and the online monitor
// over the steps of a live frame stream.
//
// Pushed steps queue in an input block and run blockSteps at a time
// (see program.exec); Flush runs a partial block, and Step is a
// one-step block. However the steps are partitioned into blocks, the
// events are the same and come back in the same order: by input step,
// then by rule-set order.
type StreamChecker struct {
	period time.Duration
	names  []string
	index  map[string]int
	rules  []*ruleStream
	steps  int // input steps run
	done   bool

	// inputs binds each signal some rule loads to its column of the
	// input block; rows is how many queued steps the block holds.
	inputs []input
	rows   int
	// prog holds every rule's instructions, rule by rule in rule-set
	// order, and the register file they run on: the input block's
	// columns, then each rule's own registers.
	prog *program

	// evbuf is reused across calls so a steady-state step performs no
	// allocation; next is gather's per-rule merge cursor, and supp the
	// warmup masks of the rule being decided.
	evbuf []Event
	next  []int
	supp  [blockSteps]bool

	// nanos, when non-nil, receives each rule's block time (see Time),
	// and last is the clock reading the next rule's time starts from.
	nanos []int64
	last  time.Time
}

// NewStreamChecker builds an online checker over the given signal
// universe (names index the value slices passed to Push and Step).
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
	sc.next = make([]int, len(sc.rules))
	sc.link(opts.DeltaMode)
	return sc, nil
}

// link lays out the register file, one input column per loaded
// signal, shared by every rule that loads it, then each rule's other
// registers; and it joins the rules' programs into one, so a block runs
// every rule's instructions in one pass.
func (sc *StreamChecker) link(mode DeltaMode) {
	inputs := make(map[int32]int32) // signal index -> column
	for _, r := range sc.rules {
		for _, l := range r.prog.loads {
			if _, ok := inputs[l.src]; !ok {
				inputs[l.src] = int32(len(sc.inputs))
				sc.inputs = append(sc.inputs, input{src: l.src, reg: int32(len(sc.inputs))})
			}
		}
	}
	size, regs := int32(len(sc.inputs)), 0
	var code, edges, hists, wins, lines int
	for _, r := range sc.rules {
		p := r.prog
		regs = max(regs, len(p.init))
		size += int32(len(p.init) - len(p.loads))
		code += len(p.code)
		edges += len(p.edges)
		hists += len(p.hists)
		wins += len(p.wins)
		lines += len(p.lines)
	}
	prog := &program{
		code:  make([]instr, 0, code),
		edges: make([]bool, 0, edges),
		hists: make([]histState, 0, hists),
		wins:  make([]window, 0, wins),
		lines: make([]line, 0, lines),
		v:     make([]column, size),
		u:     make([]freshColumn, size),
		mode:  mode, period: sc.period.Seconds(),
	}
	for i := range sc.inputs {
		in := &sc.inputs[i]
		in.v, in.u = &prog.v[in.reg], &prog.u[in.reg]
	}
	next := int32(len(sc.inputs))
	off := make([]int32, regs)
	for _, r := range sc.rules {
		off := off[:len(r.prog.init)]
		for j := range off {
			off[j] = -1
		}
		for _, l := range r.prog.loads {
			off[l.dst] = inputs[l.src]
		}
		for j := range off {
			if off[j] < 0 {
				off[j] = next
				next++
			}
		}
		r.link(off, prog)
	}
	sc.prog = prog
}

// NumRules returns the number of rules the checker evaluates: the
// length Time expects of its nanos slice.
func (sc *StreamChecker) NumRules() int { return len(sc.rules) }

// Signals returns the signal order expected by Step.
func (sc *StreamChecker) Signals() []string {
	out := make([]string, len(sc.names))
	copy(out, sc.names)
	return out
}

// Push queues one aligned step: vals holds the held signal values in
// the checker's signal order, upd the per-signal freshness bits. When
// the queue fills a block, Push runs it and returns the events that
// became decidable; otherwise it returns none, and the queued steps
// wait for a full block, Flush, Step or Finish. The returned slice is a
// scratch buffer owned by the checker: it is valid only until the next
// Push, Flush, Step or Finish call, so callers that retain events must
// copy them out. Unless Time armed the checker, no call reads the
// clock.
func (sc *StreamChecker) Push(vals []float64, upd []bool) ([]Event, error) {
	if err := sc.checkStep(vals, upd); err != nil {
		return nil, err
	}
	sc.evbuf = sc.evbuf[:0]
	sc.queue(vals, upd)
	if sc.rows == blockSteps {
		sc.run()
	}
	return sc.evbuf, nil
}

// Flush runs the queued steps as one block and returns their events,
// under Push's scratch-buffer contract.
func (sc *StreamChecker) Flush() ([]Event, error) {
	if sc.done {
		return nil, fmt.Errorf("speclang: Flush after Finish")
	}
	sc.evbuf = sc.evbuf[:0]
	sc.run()
	return sc.evbuf, nil
}

// Step is Push followed by Flush: it runs the step, after any queued
// ones, and returns every event that became decidable, under Push's
// scratch-buffer contract.
func (sc *StreamChecker) Step(vals []float64, upd []bool) ([]Event, error) {
	if err := sc.checkStep(vals, upd); err != nil {
		return nil, err
	}
	sc.evbuf = sc.evbuf[:0]
	sc.queue(vals, upd)
	sc.run()
	return sc.evbuf, nil
}

// Time arms per-rule block timing: while armed, every block a call runs
// adds each rule's wall-clock nanoseconds to nanos[i] (rule-set order).
// The clock is read once before the first rule and once after each, so
// the rule times tile the block back to back. nanos must hold NumRules
// entries; the caller owns and zeroes it, so timing allocates nothing.
// A nil slice disarms the checker.
func (sc *StreamChecker) Time(nanos []int64) error {
	if nanos != nil && len(nanos) != len(sc.rules) {
		return fmt.Errorf("speclang: timing carries %d rule slots, want %d", len(nanos), len(sc.rules))
	}
	sc.nanos = nanos
	return nil
}

// clock is Time's time source, a variable so tests can substitute a
// deterministic one.
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

// input binds input signal src to register reg, whose linked columns
// are v and u.
type input struct {
	src, reg int32
	v        *column
	u        *freshColumn
}

// queue copies one step's loaded signals into the next input row.
func (sc *StreamChecker) queue(vals []float64, upd []bool) {
	j := sc.rows
	for _, in := range sc.inputs {
		in.v[j], in.u[j] = vals[in.src], upd[in.src]
	}
	sc.rows++
}

// run executes the queued steps as one block, rule by rule: each
// rule's instructions over the whole block, then its decisions over its
// finished columns. The rules' instruction ranges tile the program in
// rule-set order, so this is the whole program in one pass.
func (sc *StreamChecker) run() {
	m, k0 := sc.rows, sc.steps
	if m == 0 {
		return
	}
	if sc.nanos != nil {
		sc.last = clock()
	}
	emitting := 0
	for i, r := range sc.rules {
		sc.prog.exec(r.lo, r.hi, k0, m, math.MaxInt)
		r.decide(k0, m, &sc.supp)
		if len(r.evs) > 0 {
			emitting++
		}
		if sc.nanos != nil {
			sc.tick(i)
		}
	}
	sc.gather(emitting)
	sc.steps += m
	sc.rows = 0
}

// tick adds the time since the last reading to rule i's slot. It is
// kept out of run's loop so the untimed loop carries no clock state.
func (sc *StreamChecker) tick(i int) {
	now := clock()
	sc.nanos[i] += int64(now.Sub(sc.last))
	sc.last = now
}

// gather moves the events the rules recorded into evbuf in step order,
// and within a step in rule-set order, so the events do not depend on
// where block boundaries fall. emitting is how many rules recorded any.
func (sc *StreamChecker) gather(emitting int) {
	switch emitting {
	case 0:
	case 1:
		for _, r := range sc.rules {
			if len(r.evs) > 0 {
				sc.evbuf = append(sc.evbuf, r.evs...)
				r.evs, r.evAt = r.evs[:0], r.evAt[:0]
			}
		}
	default:
		sc.merge()
	}
}

// merge is gather for events from more than one rule: it repeatedly
// takes the event with the earliest slot, the earliest rule on a tie.
func (sc *StreamChecker) merge() {
	clear(sc.next)
	for {
		pick := -1
		for i, r := range sc.rules {
			if c := sc.next[i]; c < len(r.evs) && (pick < 0 || r.evAt[c] < sc.rules[pick].evAt[sc.next[pick]]) {
				pick = i
			}
		}
		if pick < 0 {
			break
		}
		sc.evbuf = append(sc.evbuf, sc.rules[pick].evs[sc.next[pick]])
		sc.next[pick]++
	}
	for _, r := range sc.rules {
		r.evs, r.evAt = r.evs[:0], r.evAt[:0]
	}
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

// Finish runs the queued steps, drains every rule's pipeline, closes
// open violations at the end of the trace, and returns the remaining
// events: the queued steps' in step order, then each rule's drain in
// rule-set order. The checker cannot be used afterwards.
func (sc *StreamChecker) Finish() ([]Event, error) {
	if sc.done {
		return nil, fmt.Errorf("speclang: Finish called twice")
	}
	sc.evbuf = sc.evbuf[:0]
	sc.run()
	sc.done = true
	for _, r := range sc.rules {
		r.finish(sc.steps, &sc.supp)
		sc.gather(min(len(r.evs), 1))
	}
	return sc.evbuf, nil
}

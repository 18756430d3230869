package speclang

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Program is a rule set compiled and linked for one step period and
// delta mode: every rule's instructions, rule by rule in rule-set
// order, whose operands index a register file; the constant presets;
// each rule's decision metadata; and the sizes of the state a checker
// allocates. Compile once, then open any number of checkers over it: a
// Program is never written after NewProgram returns, so checkers on
// many goroutines may share one.
type Program struct {
	period time.Duration
	secs   float64 // the period in seconds, which rate divides by
	mode   DeltaMode
	names  []string // the rule set's signal universe; inputs index it

	code  []instr
	rules []ruleProg
	// inputs binds each signal some rule loads to its input register,
	// and consts presets the constant registers no instruction writes.
	inputs []input
	consts []preset

	// The state a checker allocates: regs registers, each a truth word
	// and a freshness word, of which the number registers also own the
	// value column col[r] (-1 for a truth register) of cols; edges
	// rise/fall bits, hists difference memories, a truth ring of wins[i]
	// slots per window, lines delay lines, and warmups warmup states.
	regs, cols, edges, hists int
	col                      []int32
	wins                     []int
	lines                    int
	warmups                  int
}

// input binds signal src to register reg. Besides the value column,
// the register's truth word is filled when truth is set, when some
// instruction or decision reads the signal as truth, and its freshness
// word when fresh is set, when some instruction reads it (see
// markFresh). In a Program src indexes the rule set's signal universe;
// in a checker, the caller's value order.
type input struct {
	src, reg     int32
	truth, fresh bool
}

// preset fills register reg's column with v.
type preset struct {
	reg int32
	v   float64
}

// NewProgram compiles and links the rule set for the given step period
// and options.
func (rs *RuleSet) NewProgram(period time.Duration, opts EvalOptions) (*Program, error) {
	return rs.link(rs.rules, period, opts.DeltaMode)
}

// link compiles the given rules of the set into one Program.
func (rs *RuleSet) link(rules []*Rule, period time.Duration, mode DeltaMode) (*Program, error) {
	if period <= 0 {
		return nil, fmt.Errorf("speclang: non-positive stream period %v", period)
	}
	c := &compiler{
		p:         &Program{period: period, secs: period.Seconds(), mode: mode, names: rs.names},
		signals:   rs.signals,
		shared:    make(map[instrKey]int32),
		inputs:    make(map[int32]int32),
		constRegs: make(map[uint64]int32),
	}
	for _, r := range rules {
		if err := c.rule(r); err != nil {
			return nil, err
		}
	}
	p := c.p
	p.regs = len(c.regs)
	p.col = make([]int32, p.regs)
	for r, ri := range c.regs {
		p.col[r] = -1
		if ri.kind == number {
			p.col[r] = int32(p.cols)
			p.cols++
		}
	}
	for i := range p.inputs {
		p.inputs[i].truth = c.regs[p.inputs[i].reg].asTruth
	}
	for i := range p.rules {
		p.warmups += len(p.rules[i].warmups)
	}
	p.markFresh()
	return p, nil
}

// NewStreamChecker compiles the rule set for the period and options and
// opens a checker over the given signal order: NewProgram then
// NewChecker. A caller that opens more than one checker should keep
// the Program.
func (rs *RuleSet) NewStreamChecker(signals []string, period time.Duration, opts EvalOptions) (*StreamChecker, error) {
	p, err := rs.NewProgram(period, opts)
	if err != nil {
		return nil, err
	}
	return p.NewChecker(signals)
}

// NewChecker opens a checker over the program: it allocates the
// session's state and binds each signal the rules load to its index in
// signals, the order of the value slices passed to Push and Step. A
// loaded signal missing from signals is an error; signals no rule
// loads are ignored.
func (p *Program) NewChecker(signals []string) (*StreamChecker, error) {
	sc := &StreamChecker{
		p:     p,
		width: len(signals),
		bind:  make([]binding, len(p.inputs)),
		v:     make([]column, p.cols),
		cols:  make([]operands, len(p.code)),
		edges: make([]bool, p.edges),
		hists: make([]histState, p.hists),
		wins:  make([]window, len(p.wins)),
		lines: make([]line, p.lines),
		rules: make([]ruleState, len(p.rules)),
	}
	// One slab of words holds the truth and freshness words and the bit
	// rings. A delay line of hi steps keeps its operand's values in a
	// ring of hi floats (a number line) or of bits (a truth line); it
	// and a future window delay their operand's freshness, when read,
	// by hi steps in a ring of bits.
	vals, words := 0, 2*p.regs
	for _, in := range p.code {
		if in.op == opDelay && in.kind == number {
			vals += int(in.hi)
		} else if in.op == opDelay {
			words += ringWords(int(in.hi))
		}
		if in.fresh && (in.op == opDelay || in.op == opAlways || in.op == opEventually) {
			words += ringWords(int(in.hi))
		}
	}
	valSlab, wordSlab := make([]float64, vals), make([]uint32, words)
	sc.t, sc.u, wordSlab = wordSlab[:p.regs:p.regs], wordSlab[p.regs:2*p.regs:2*p.regs], wordSlab[2*p.regs:]
	for _, in := range p.code {
		switch d := int(in.hi); {
		case in.op == opDelay:
			l := &sc.lines[in.state]
			if in.kind == number {
				l.vals, valSlab = valSlab[:d:d], valSlab[d:]
			} else {
				l.bits = newBitRing(d, &wordSlab)
			}
			if in.fresh {
				l.fresh = newBitRing(d, &wordSlab)
			}
		case in.fresh && (in.op == opAlways || in.op == opEventually):
			sc.wins[in.state].fresh = newBitRing(d, &wordSlab)
		}
	}
	for i, in := range p.inputs {
		name := p.names[in.src]
		j := slices.Index(signals, name)
		if j < 0 {
			return nil, fmt.Errorf("speclang: signal %q is not present in the stream", name)
		}
		in.src = int32(j)
		sc.bind[i].input, sc.bind[i].v = in, sc.column(in.reg)
	}
	for i, in := range p.code {
		sc.cols[i] = operands{sc.column(in.dst), sc.column(in.a), sc.column(in.b), sc.column(in.c)}
	}
	for _, c := range p.consts {
		col := sc.column(c.reg)
		for j := range col {
			col[j] = c.v
		}
		if truthy(c.v) {
			sc.t[c.reg] = ^uint32(0)
		}
	}
	for i := range sc.hists {
		sc.hists[i] = histState{prevUpd: math.NaN(), curVal: math.NaN(), prevStep: -1, curStep: -1}
	}
	ring := 0
	for _, n := range p.wins {
		ring += n
	}
	rings := make([]bool, ring)
	for i, n := range p.wins {
		sc.wins[i].truth, rings = rings[:n:n], rings[n:]
	}
	warm := make([]warmState, p.warmups)
	for i := range sc.rules {
		r, def := &sc.rules[i], &p.rules[i]
		r.ruleProg, r.t = def, sc.t
		if def.severity >= 0 {
			r.sev = sc.column(def.severity)
		}
		r.warm, warm = warm[:len(def.warmups):len(def.warmups)], warm[len(def.warmups):]
		if def.machine != nil {
			r.cur = def.machine.initial
		}
	}
	return sc, nil
}

// column returns number register r's value column, nil for a truth
// register.
func (sc *StreamChecker) column(r int32) *column {
	if c := sc.p.col[r]; c >= 0 {
		return &sc.v[c]
	}
	return nil
}

// binding is one of a checker's inputs: its value column v and, when
// it is read, the freshness of each row the input block holds so far,
// one byte per row.
type binding struct {
	input
	v   *column
	upd [blockSteps]uint8
}

// signals returns the names of the signals the rules load, in input
// column order.
func (p *Program) signals() []string {
	out := make([]string, len(p.inputs))
	for i, in := range p.inputs {
		out[i] = p.names[in.src]
	}
	return out
}

// StreamChecker is one session of a Program: aligned steps are pushed
// one at a time and violation events come back with a delay bounded by
// each rule's temporal horizon. It is the only rule evaluator:
// Program.Eval drives it over the rows of a recorded source, and the
// online monitor over the steps of a live frame stream. It holds only
// the session's state — the register file, the memory of every
// stateful instruction and each rule's decision state — and reads the
// shared Program for everything else. A checker is owned by one
// goroutine.
//
// Pushed steps queue in an input block and run blockSteps at a time
// (see StreamChecker.exec); Flush runs a partial block, and Step is a
// one-step block. However the steps are partitioned into blocks, the
// events are the same and come back in the same order: by input step,
// then by rule-set order.
type StreamChecker struct {
	p *Program
	// width is the length of the value slices Push takes, and bind
	// holds the program's inputs with each src rebound to the index of
	// its signal in them.
	width int
	bind  []binding
	rules []ruleState
	steps int // input steps run
	done  bool
	// rows is how many queued steps the input block holds.
	rows int

	// The register file: register r is the truth word t[r], the
	// freshness word u[r] and, for a number register, the value column
	// v[p.col[r]]; slot j of a block, bit j of a word, holds input step
	// k0+j. Input registers make up the one input block. cols[i] holds
	// instruction i's value columns.
	v    []column
	t, u []uint32
	cols []operands
	// The state of the stateful instructions, indexed by instr.state.
	edges []bool // rise/fall: the operand's previous truthiness
	hists []histState
	wins  []window
	lines []line

	// evbuf is reused across calls so a steady-state step performs no
	// allocation.
	evbuf []Event

	// nanos, when non-nil, receives each rule's block time (see Time),
	// and last is the clock reading the next rule's time starts from.
	nanos []int64
	last  time.Time
}

// NumRules returns the number of rules the checker evaluates: the
// length Time expects of its nanos slice.
func (sc *StreamChecker) NumRules() int { return len(sc.rules) }

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
	if len(vals) != sc.width || len(upd) != sc.width {
		return fmt.Errorf("speclang: step carries %d/%d entries, want %d", len(vals), len(upd), sc.width)
	}
	return nil
}

// queue copies one step's loaded signals into the next input row: each
// value into its register's column and, where it is read, its freshness
// into the binding, until load packs the block's into a word.
func (sc *StreamChecker) queue(vals []float64, upd []bool) {
	j, bind := sc.rows%blockSteps, sc.bind // rows < blockSteps here
	for i := range bind {
		in := &bind[i]
		in.v[j] = vals[in.src]
		if in.fresh {
			in.upd[j] = uint8(bit(upd[in.src]))
		}
	}
	sc.rows++
}

// load fills the input registers' words that are read from the queued
// block of m rows: freshness words, and the truth words of the signals
// read as truth. Their bits past m are unspecified.
func (sc *StreamChecker) load(m int) {
	for i := range sc.bind {
		in := &sc.bind[i]
		if in.fresh {
			sc.u[in.reg] = pack(&in.upd, m)
		}
		if in.truth {
			sc.t[in.reg] = truths(in.v[:m])
		}
	}
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
	sc.load(m)
	if sc.nanos != nil {
		sc.last = clock()
	}
	emitting := 0
	for i := range sc.rules {
		r := &sc.rules[i]
		sc.exec(r.lo, r.hi, k0, m, math.MaxInt)
		r.decide(k0, m)
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
		for i := range sc.rules {
			if r := &sc.rules[i]; len(r.evs) > 0 {
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
	rules := sc.rules
	for {
		var pick *ruleState
		for i := range rules {
			if r := &rules[i]; r.next < len(r.evs) && (pick == nil || r.evAt[r.next] < pick.evAt[pick.next]) {
				pick = r
			}
		}
		if pick == nil {
			break
		}
		sc.evbuf = append(sc.evbuf, pick.evs[pick.next])
		pick.next++
	}
	for i := range rules {
		r := &rules[i]
		r.evs, r.evAt, r.next = r.evs[:0], r.evAt[:0], 0
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
	for i := range sc.rules {
		r := &sc.rules[i]
		sc.finish(r)
		sc.gather(min(len(r.evs), 1))
	}
	return sc.evbuf, nil
}

// finish drains r after the last input step, deciding the output steps
// still in flight, and closes any open violation at the end of the
// trace. Events go to r.evs, in step order.
func (sc *StreamChecker) finish(r *ruleState) {
	n := sc.steps
	for k0 := n; k0 < n+r.delay; k0 += blockSteps {
		m := min(blockSteps, n+r.delay-k0)
		sc.exec(r.lo, r.hi, k0, m, n)
		r.decide(k0, m)
	}
	if r.open {
		r.emit(blockSteps, r.close(n))
	}
}

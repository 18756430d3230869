package speclang

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// EventKind distinguishes streaming events.
type EventKind int

const (
	// ViolationBegin reports a violation interval opening.
	ViolationBegin EventKind = iota + 1
	// ViolationEnd reports a closed violation interval, carrying the
	// complete Violation record.
	ViolationEnd
)

// Event is one incremental monitoring notification.
type Event struct {
	// Rule is the reporting rule.
	Rule string
	// Kind is ViolationBegin or ViolationEnd.
	Kind EventKind
	// Time is the step time the event refers to (the violation start
	// for Begin, the exclusive end for End). Events are delivered a
	// bounded number of steps after Time — the rule's temporal horizon.
	Time time.Duration
	// Violation is the full record, set on ViolationEnd.
	Violation Violation
}

// ruleProg is one rule's part of a Program: its instruction range and
// everything its decisions read. It is never written after compilation.
type ruleProg struct {
	rule   *Rule
	period time.Duration
	// delay is the rule's output delay. Every root register below is
	// aligned to it, so after step k runs they all hold step k-delay.
	delay int
	// maskUntil is the output step from which no warmup can mask: none
	// is triggered and every start-of-trace one has expired. MaxInt
	// when some warmup has a trigger.
	maskUntil int
	// The rule owns code[lo:hi] of the program.
	lo, hi int

	// Specs: one truth register and message per assert clause.
	asserts []int32
	msgs    []string
	// Spec activation: every step when some assert is not an
	// implication (everyAssertActive), otherwise the steps where some
	// implication's antecedent truth register holds.
	antes             []int32
	everyAssertActive bool

	severity int32 // a number register; -1 when the rule has none
	warmups  []warmup
	// Monitors: the state machine consumes the guard truth registers.
	machine *machine
}

// ruleState is one rule's decision state in a checker. The fields
// decide reads on every step come first, so they share cache lines.
type ruleState struct {
	*ruleProg
	t   []uint32 // the checker's truth words
	sev *column  // the severity register's values; nil when none

	// Per decided output step: how many were masked by a warmup, and
	// how many exercised the rule (see RuleResult.ActivationSteps).
	suppressed, active int

	// open violation state
	open      bool
	openStart int
	openMsg   string
	peak      float64

	// Monitors: the machine's current state and the step it entered.
	cur, entered int
	// warm holds one state per warmup clause.
	warm []warmState

	// evs holds the events the current block decided, and evAt the
	// block slot that decided each; the checker merges them across
	// rules into step order, with next as this rule's cursor.
	evs  []Event
	evAt []int
	next int
}

// warmup is one compiled warmup clause.
type warmup struct {
	window int
	on     int32 // trigger truth register; -1 = from trace start
}

// warmState is a warmup clause's state in a checker.
type warmState struct {
	was bool
	// suppressedUntil is the exclusive end of the current suppression
	// window, in steps.
	suppressedUntil int
}

// mask advances the warmup over block slots [lo, m), whose output
// steps start at t0+lo, and returns the slots it masks. A triggered
// warmup masks window steps from each rising edge of its trigger.
func (w *warmup) mask(s *warmState, t0, lo, m int, t []uint32) uint32 {
	if w.on < 0 {
		return slots(lo, min(m, w.window-t0))
	}
	on := t[w.on]
	edges := on &^ before(on, s.was, lo) & slots(lo, m)
	s.was = at(on, m-1)
	supp := slots(lo, min(m, s.suppressedUntil-t0))
	for ; edges != 0; edges &= edges - 1 {
		j := bits.TrailingZeros32(edges)
		s.suppressedUntil = t0 + j + w.window
		supp |= slots(j, min(m, j+w.window))
	}
	return supp
}

// machine is a compiled monitor state machine over its guard
// registers; its current state lives in the rule's ruleState.
type machine struct {
	m       *Monitor
	guards  [][]int32 // per state, per transition; -1 for after
	targets [][]int   // per state, per transition; -1 = stay
	// fallbackMsg precomputes the per-state default violation message,
	// so a violating step never formats on the hot path.
	fallbackMsg []string
	initial     int
}

func newMachine(c *compiler, m *Monitor, initial int) (*machine, error) {
	states := make(map[string]int, len(m.States))
	for i, st := range m.States {
		states[st.Name] = i
	}
	ms := &machine{
		m:           m,
		guards:      make([][]int32, len(m.States)),
		targets:     make([][]int, len(m.States)),
		fallbackMsg: make([]string, len(m.States)),
		initial:     initial,
	}
	for i := range m.States {
		st := &m.States[i]
		ms.guards[i] = make([]int32, len(st.Transitions))
		ms.targets[i] = make([]int, len(st.Transitions))
		ms.fallbackMsg[i] = fmt.Sprintf("violation in state %s", st.Name)
		for j := range st.Transitions {
			tr := &st.Transitions[j]
			ms.guards[i][j], ms.targets[i][j] = -1, -1
			if tr.Target != "" {
				ms.targets[i][j] = states[tr.Target]
			}
			if tr.Kind != TransWhen {
				continue
			}
			g, err := c.build(tr.Guard)
			if err != nil {
				return nil, err
			}
			ms.guards[i][j] = c.as(g, truth)
		}
	}
	return ms, nil
}

// step executes rs's transition round for output step t, held in block
// slot j, and returns the violation mark, "" when none.
func (ms *machine) step(rs *ruleState, t, j int) string {
	mark := ""
	cur := rs.cur
	for i := range ms.m.States[cur].Transitions {
		tr := &ms.m.States[cur].Transitions[i]
		fire := false
		switch tr.Kind {
		case TransWhen:
			fire = at(rs.t[ms.guards[cur][i]], j)
		case TransAfter:
			dwell := time.Duration(t-rs.entered) * rs.period
			fire = dwell >= tr.Deadline
		}
		if !fire {
			continue
		}
		if tr.Violate {
			mark = tr.Msg
			if mark == "" {
				mark = ms.fallbackMsg[cur]
			}
		}
		if next := ms.targets[cur][i]; next >= 0 && next != cur {
			rs.cur = next
			rs.entered = t + 1
		}
		break
	}
	return mark
}

// rule compiles r into the program: its instructions, appended as one
// contiguous range, and its decision metadata.
func (c *compiler) rule(r *Rule) error {
	var lets []Let
	var warmups []Warmup
	var severity Expr
	if r.Kind == KindSpec {
		lets, warmups, severity = r.spec.Lets, r.spec.Warmups, r.spec.Severity
	} else {
		lets, warmups, severity = r.monitor.Lets, r.monitor.Warmups, r.monitor.Severity
	}
	c.consts = r.consts
	c.lets = make(map[string]Expr, len(lets))
	for _, l := range lets {
		c.lets[l.Name] = l.X
	}
	clear(c.shared)
	period := c.p.period
	rs := &ruleProg{rule: r, period: period, severity: -1, lo: len(c.p.code)}

	if r.Kind == KindSpec {
		for i, a := range r.spec.Asserts {
			reg, err := c.build(a)
			if err != nil {
				return err
			}
			line, _ := a.Pos()
			rs.asserts = append(rs.asserts, c.as(reg, truth))
			rs.msgs = append(rs.msgs, fmt.Sprintf("assert #%d (line %d) failed", i+1, line))
			// The antecedent was compiled as the implication's operand,
			// so building it again, and reading it as truth, returns
			// that shared register.
			if impl, ok := a.(*Binary); ok && impl.Op == tokArrow {
				ante, err := c.build(impl.L)
				if err != nil {
					return err
				}
				rs.antes = append(rs.antes, c.as(ante, truth))
			} else {
				rs.everyAssertActive = true
			}
		}
		if rs.everyAssertActive {
			rs.antes = nil // every step is active; no register to read
		}
	} else {
		ms, err := newMachine(c, r.monitor, r.initial)
		if err != nil {
			return err
		}
		rs.machine = ms
	}
	if severity != nil {
		reg, err := c.build(severity)
		if err != nil {
			return err
		}
		rs.severity = c.as(reg, number)
	}
	for _, w := range warmups {
		ws := warmup{window: int(w.Window / period), on: -1}
		if ws.window < 1 {
			ws.window = 1
		}
		if w.On != nil {
			reg, err := c.build(w.On)
			if err != nil {
				return err
			}
			ws.on = c.as(reg, truth)
		}
		rs.warmups = append(rs.warmups, ws)
		if ws.on >= 0 {
			rs.maskUntil = math.MaxInt
		} else {
			rs.maskUntil = max(rs.maskUntil, ws.window)
		}
	}

	// Align every root to the slowest one, so a rule output step is
	// decided from registers alone, with no queue between them.
	roots := rs.roots()
	for _, reg := range roots {
		rs.delay = max(rs.delay, c.regs[*reg].delay)
	}
	if rs.severity >= 0 {
		rs.delay = max(rs.delay, c.regs[rs.severity].delay)
	}
	for _, reg := range roots {
		*reg = c.align(*reg, rs.delay, truth)
	}
	if rs.severity >= 0 {
		rs.severity = c.align(rs.severity, rs.delay, number)
	}
	rs.hi = len(c.p.code)
	c.p.rules = append(c.p.rules, *rs)
	return nil
}

// roots returns pointers to every truth register the rule decides
// from: all but the severity.
func (rs *ruleProg) roots() []*int32 {
	var out []*int32
	for i := range rs.asserts {
		out = append(out, &rs.asserts[i])
	}
	for i := range rs.antes {
		out = append(out, &rs.antes[i])
	}
	if rs.machine != nil {
		for _, gs := range rs.machine.guards {
			for j := range gs {
				if gs[j] >= 0 {
					out = append(out, &gs[j])
				}
			}
		}
	}
	for i := range rs.warmups {
		if rs.warmups[i].on >= 0 {
			out = append(out, &rs.warmups[i].on)
		}
	}
	return out
}

// decide decides the output steps completed by the block of m slots
// starting at input step k0 (none before the pipeline fills): it reads
// the aligned root words, counts the steps, and maintains the
// open-violation state, recording events in rs.evs. A spec's block with
// no violated slot and no violation open settles in a few word
// operations; a run of violated slots is walked slot by slot only to
// read its severity.
func (rs *ruleState) decide(k0, m int) {
	lo := min(max(rs.delay-k0, 0), m)
	if lo == m {
		return
	}
	t0 := k0 - rs.delay // the output step slot 0 completes
	var supp uint32
	if t0+lo < rs.maskUntil {
		supp = rs.mask(t0, lo, m)
	}
	if ms := rs.machine; ms != nil {
		for j := lo; j < m; j++ {
			// A monitor step is active when the machine is outside its
			// initial state before or after the step's transition.
			active := rs.cur != ms.initial
			mark := ms.step(rs, t0+j, j)
			if active || rs.cur != ms.initial {
				rs.active++
			}
			rs.record(t0+j, j, mark, at(supp, j))
		}
		return
	}
	t, valid := rs.t, slots(lo, m)
	// A rule with an assert that is no implication has no antecedents
	// to read: every step is active.
	if rs.everyAssertActive {
		rs.active += m - lo
	} else {
		var ante uint32
		for _, a := range rs.antes {
			ante |= t[a]
		}
		rs.active += bits.OnesCount32(ante & valid)
	}
	var failed uint32
	for _, a := range rs.asserts {
		failed |= ^t[a]
	}
	// Walk the runs of violated, unmasked slots: each opens a violation,
	// unless one is open from the block before, and the first slot past
	// it closes the violation.
	bad := failed & valid &^ supp
	for j := lo; j < m; {
		if !rs.open {
			rest := bad >> j
			if rest == 0 {
				break
			}
			j += bits.TrailingZeros32(rest)
			for i, a := range rs.asserts {
				if !at(t[a], j) {
					rs.begin(t0+j, j, rs.msgs[i])
					break
				}
			}
		}
		end := min(m, j+bits.TrailingZeros32(^bad>>j))
		if rs.sev != nil {
			for k := j; k < end; k++ {
				rs.observe(k)
			}
		}
		if end == m {
			break
		}
		rs.emit(end, rs.close(t0+end))
		j = end
	}
}

// mask runs the warmups over block slots [lo, m), whose output steps
// start at t0+lo, counts the masked steps and returns their slots. It
// skips every start-of-trace warmup that has expired.
func (rs *ruleState) mask(t0, lo, m int) uint32 {
	var supp uint32
	for i := range rs.warmups {
		w := &rs.warmups[i]
		if w.on < 0 && t0+lo >= w.window {
			continue
		}
		supp |= w.mask(&rs.warm[i], t0, lo, m, rs.t)
	}
	rs.suppressed += bits.OnesCount32(supp)
	return supp
}

// record applies output step t's verdict, decided at block slot j: mark
// is the violated clause's message, "" when none.
func (rs *ruleState) record(t, j int, mark string, suppressed bool) {
	if mark == "" || suppressed {
		if rs.open {
			rs.emit(j, rs.close(t))
		}
		return
	}
	if !rs.open {
		rs.begin(t, j, mark)
	}
	if rs.sev != nil {
		rs.observe(j)
	}
}

// begin opens a violation at output step t, decided at block slot j.
func (rs *ruleState) begin(t, j int, mark string) {
	rs.open = true
	rs.openStart = t
	rs.openMsg = mark
	rs.peak = 0
	rs.emit(j, Event{
		Rule: rs.rule.Name,
		Kind: ViolationBegin,
		Time: time.Duration(t) * rs.period,
	})
}

// observe raises the open violation's peak to the absolute severity at
// block slot j, a NaN severity counting as +Inf.
func (rs *ruleState) observe(j int) {
	a := math.Abs(rs.sev[j])
	if math.IsNaN(a) {
		a = math.Inf(1)
	}
	if a > rs.peak {
		rs.peak = a
	}
}

// emit records an event decided at block slot j.
func (rs *ruleState) emit(j int, e Event) {
	rs.evs = append(rs.evs, e)
	rs.evAt = append(rs.evAt, j)
}

// close ends the open violation exclusively at step end.
func (rs *ruleState) close(end int) Event {
	rs.open = false
	return Event{
		Rule: rs.rule.Name,
		Kind: ViolationEnd,
		Time: time.Duration(end) * rs.period,
		Violation: Violation{
			StartStep: rs.openStart,
			EndStep:   end,
			Start:     time.Duration(rs.openStart) * rs.period,
			End:       time.Duration(end) * rs.period,
			Peak:      rs.peak,
			Msg:       rs.openMsg,
		},
	}
}

package speclang

import (
	"fmt"
	"math"
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

// ruleStream evaluates one compiled rule incrementally.
type ruleStream struct {
	rule   *Rule
	period time.Duration
	prog   *program
	// delay is the rule's output delay. Every root register below is
	// aligned to it, so after step k runs they all hold step k-delay.
	delay int

	// Specs: one register and message per assert clause.
	asserts []int32
	msgs    []string
	// Monitors: the state machine consumes the guard registers.
	machine *machine

	severity int32 // -1 when the rule has none
	warmups  []warmup

	// open violation state
	open      bool
	openStart int
	openMsg   string
	peak      float64
}

// warmup tracks one warmup clause.
type warmup struct {
	window int
	on     int32 // trigger register; -1 = from trace start
	was    bool
	// suppressedUntil is the exclusive end of the current suppression
	// window, in steps.
	suppressedUntil int
}

// suppresses advances the warmup to output step t and reports whether
// t is suppressed.
func (w *warmup) suppresses(t int, regs []reg) bool {
	if w.on < 0 {
		return t < w.window
	}
	cur := truthy(regs[w.on].v)
	if cur && !w.was {
		w.suppressedUntil = t + w.window
	}
	w.was = cur
	return t < w.suppressedUntil
}

// machine runs a monitor state machine over its guard registers.
type machine struct {
	m       *Monitor
	guards  [][]int32 // per state, per transition; -1 for after
	targets [][]int   // per state, per transition; -1 = stay
	// fallbackMsg precomputes the per-state default violation message,
	// so a violating step never formats on the hot path.
	fallbackMsg []string
	period      time.Duration

	cur     int
	entered int
}

func newMachine(c *compiler, m *Monitor, initial int, period time.Duration) (*machine, error) {
	states := make(map[string]int, len(m.States))
	for i, st := range m.States {
		states[st.Name] = i
	}
	ms := &machine{
		m:           m,
		guards:      make([][]int32, len(m.States)),
		targets:     make([][]int, len(m.States)),
		fallbackMsg: make([]string, len(m.States)),
		period:      period,
		cur:         initial,
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
			ms.guards[i][j] = g
		}
	}
	return ms, nil
}

// step executes the transition round for output step t and returns the
// violation mark, "" when none.
func (ms *machine) step(t int, regs []reg) string {
	mark := ""
	for j := range ms.m.States[ms.cur].Transitions {
		tr := &ms.m.States[ms.cur].Transitions[j]
		fire := false
		switch tr.Kind {
		case TransWhen:
			fire = truthy(regs[ms.guards[ms.cur][j]].v)
		case TransAfter:
			dwell := time.Duration(t-ms.entered) * ms.period
			fire = dwell >= tr.Deadline
		}
		if !fire {
			continue
		}
		if tr.Violate {
			mark = tr.Msg
			if mark == "" {
				mark = ms.fallbackMsg[ms.cur]
			}
		}
		if next := ms.targets[ms.cur][j]; next >= 0 && next != ms.cur {
			ms.cur = next
			ms.entered = t + 1
		}
		break
	}
	return mark
}

func newRuleStream(r *Rule, signals map[string]int, period time.Duration, opts EvalOptions) (*ruleStream, error) {
	var lets []Let
	var warmups []Warmup
	var severity Expr
	if r.Kind == KindSpec {
		lets, warmups, severity = r.spec.Lets, r.spec.Warmups, r.spec.Severity
	} else {
		lets, warmups, severity = r.monitor.Lets, r.monitor.Warmups, r.monitor.Severity
	}
	c := newCompiler(signals, r.consts, lets, opts.DeltaMode, period)
	rs := &ruleStream{rule: r, period: period, prog: c.p, severity: -1}

	if r.Kind == KindSpec {
		for i, a := range r.spec.Asserts {
			reg, err := c.build(a)
			if err != nil {
				return nil, err
			}
			line, _ := a.Pos()
			rs.asserts = append(rs.asserts, reg)
			rs.msgs = append(rs.msgs, fmt.Sprintf("assert #%d (line %d) failed", i+1, line))
		}
	} else {
		ms, err := newMachine(c, r.monitor, r.initial, period)
		if err != nil {
			return nil, err
		}
		rs.machine = ms
	}
	if severity != nil {
		reg, err := c.build(severity)
		if err != nil {
			return nil, err
		}
		rs.severity = reg
	}
	for _, w := range warmups {
		ws := warmup{window: int(w.Window / period), on: -1}
		if ws.window < 1 {
			ws.window = 1
		}
		if w.On != nil {
			reg, err := c.build(w.On)
			if err != nil {
				return nil, err
			}
			ws.on = reg
		}
		rs.warmups = append(rs.warmups, ws)
	}

	// Align every root to the slowest one, so a rule output step is
	// decided from registers alone, with no queue between them.
	roots := rs.roots()
	for _, reg := range roots {
		rs.delay = max(rs.delay, c.delay[*reg])
	}
	for _, reg := range roots {
		*reg = c.align(*reg, rs.delay)
	}
	return rs, nil
}

// roots returns pointers to every register the rule decides from.
func (rs *ruleStream) roots() []*int32 {
	var out []*int32
	for i := range rs.asserts {
		out = append(out, &rs.asserts[i])
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
	if rs.severity >= 0 {
		out = append(out, &rs.severity)
	}
	for i := range rs.warmups {
		if rs.warmups[i].on >= 0 {
			out = append(out, &rs.warmups[i].on)
		}
	}
	return out
}

// step runs input step k and, once the pipeline is full, decides output
// step k-delay, appending its events to events.
func (rs *ruleStream) step(vals []float64, upd []bool, k int, events []Event) []Event {
	rs.prog.run(vals, upd, k, math.MaxInt)
	if k >= rs.delay {
		events = rs.decide(k-rs.delay, events)
	}
	return events
}

// finish drains the program after n input steps, deciding the output
// steps still in flight, and closes any open violation at n.
func (rs *ruleStream) finish(n int, events []Event) []Event {
	for k := n; k < n+rs.delay; k++ {
		rs.prog.run(nil, nil, k, n)
		if k >= rs.delay {
			events = rs.decide(k-rs.delay, events)
		}
	}
	if rs.open {
		events = append(events, rs.close(n))
	}
	return events
}

// decide assembles output step t from the aligned root registers and
// maintains the open-violation state, appending decided events.
func (rs *ruleStream) decide(t int, events []Event) []Event {
	regs := rs.prog.regs
	mark := ""
	if rs.machine != nil {
		mark = rs.machine.step(t, regs)
	} else {
		for i, reg := range rs.asserts {
			if !truthy(regs[reg].v) {
				mark = rs.msgs[i]
				break
			}
		}
	}
	suppressed := false
	for i := range rs.warmups {
		if rs.warmups[i].suppresses(t, regs) {
			suppressed = true
		}
	}
	if mark == "" || suppressed {
		if rs.open {
			events = append(events, rs.close(t))
		}
		return events
	}
	if !rs.open {
		rs.open = true
		rs.openStart = t
		rs.openMsg = mark
		rs.peak = 0
		events = append(events, Event{
			Rule: rs.rule.Name,
			Kind: ViolationBegin,
			Time: time.Duration(t) * rs.period,
		})
	}
	if rs.severity >= 0 {
		a := math.Abs(regs[rs.severity].v)
		if math.IsNaN(a) {
			a = math.Inf(1)
		}
		if a > rs.peak {
			rs.peak = a
		}
	}
	return events
}

// close ends the open violation exclusively at step end.
func (rs *ruleStream) close(end int) Event {
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

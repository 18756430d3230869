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

// ruleStream evaluates one compiled rule incrementally. The fields
// decide reads on every step come first, so they share cache lines.
type ruleStream struct {
	// delay is the rule's output delay. Every root register below is
	// aligned to it, so after step k runs they all hold step k-delay.
	delay int
	// maskUntil is the output step from which no warmup can mask: none
	// is triggered and every start-of-trace one has expired. MaxInt
	// when some warmup has a trigger.
	maskUntil int
	// Monitors: the state machine consumes the guard registers.
	machine *machine
	// assertCols and anteCols are the linked columns of asserts and
	// antes; v is the checker's register file, as the program's.
	assertCols, anteCols []*column
	v                    []column

	// Per decided output step: how many were masked by a warmup, and
	// how many exercised the rule (see RuleResult.ActivationSteps).
	suppressed, active int

	// open violation state
	open      bool
	openStart int
	openMsg   string
	peak      float64

	rule   *Rule
	period time.Duration
	// prog is the rule's compiled program until the checker links it,
	// then the checker's one program, of which the rule owns code[lo:hi].
	prog   *program
	lo, hi int

	// Specs: one register and message per assert clause.
	asserts []int32
	msgs    []string
	// Spec activation: every step when some assert is not an
	// implication (everyAssertActive), otherwise the steps where some
	// implication's antecedent register is truthy.
	antes             []int32
	everyAssertActive bool

	severity int32 // -1 when the rule has none
	warmups  []warmup

	// evs holds the events the current block decided, and evAt the
	// block slot that decided each; the checker merges them across
	// rules into step order.
	evs  []Event
	evAt []int
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

// mask advances the warmup over block slots [lo, len(supp)), whose
// output steps start at t0+lo, and sets supp at the slots it masks.
func (w *warmup) mask(t0, lo int, v []column, supp []bool) {
	if w.on < 0 {
		for j := lo; j < len(supp) && t0+j < w.window; j++ {
			supp[j] = true
		}
		return
	}
	on := &v[w.on]
	for j := lo; j < len(supp); j++ {
		cur := truthy(on[j])
		if cur && !w.was {
			w.suppressedUntil = t0 + j + w.window
		}
		w.was = cur
		if t0+j < w.suppressedUntil {
			supp[j] = true
		}
	}
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

	initial int
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
		initial:     initial,
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

// step executes the transition round for output step t, held in block
// slot j of the register file v, and returns the violation mark, ""
// when none.
func (ms *machine) step(t int, v []column, j int) string {
	mark := ""
	for i := range ms.m.States[ms.cur].Transitions {
		tr := &ms.m.States[ms.cur].Transitions[i]
		fire := false
		switch tr.Kind {
		case TransWhen:
			fire = truthy(v[ms.guards[ms.cur][i]][j])
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
		if next := ms.targets[ms.cur][i]; next >= 0 && next != ms.cur {
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
			// The antecedent was compiled as the implication's operand,
			// so building it again returns that shared register.
			if impl, ok := a.(*Binary); ok && impl.Op == tokArrow {
				ante, err := c.build(impl.L)
				if err != nil {
					return nil, err
				}
				rs.antes = append(rs.antes, ante)
			} else {
				rs.everyAssertActive = true
			}
		}
		if rs.everyAssertActive {
			rs.antes = nil // every step is active; no register to read
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
		rs.delay = max(rs.delay, c.delay[*reg])
	}
	for _, reg := range roots {
		*reg = c.align(*reg, rs.delay)
	}
	rs.prog.markFresh()
	return rs, nil
}

// roots returns pointers to every register the rule decides from.
func (rs *ruleStream) roots() []*int32 {
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

// link places the rule in the checker's register file and its code in
// the checker's one program: off maps each of the rule's registers to
// its column, and the rule's instructions and their state are appended
// to prog, where the rule owns code[lo:hi]. Constant columns are filled
// once here; no instruction writes them.
func (rs *ruleStream) link(off []int32, prog *program) {
	p, v := rs.prog, prog.v
	for r, x := range p.init {
		if x != 0 {
			col := &v[off[r]]
			for j := range col {
				col[j] = x
			}
		}
	}
	rs.lo = len(prog.code)
	for _, in := range p.code {
		in.dst, in.a, in.b, in.c = off[in.dst], off[in.a], off[in.b], off[in.c]
		in.out, in.x, in.y, in.z = &v[in.dst], &v[in.a], &v[in.b], &v[in.c]
		switch in.op {
		case opRise, opFall:
			in.state += int32(len(prog.edges))
		case opPrev, opDelta, opRate, opChanged:
			in.state += int32(len(prog.hists))
		case opAlways, opEventually, opOnce, opHistorically:
			in.state += int32(len(prog.wins))
		case opDelay:
			in.state += int32(len(prog.lines))
		}
		prog.code = append(prog.code, in)
	}
	rs.hi = len(prog.code)
	prog.edges = append(prog.edges, p.edges...)
	prog.hists = append(prog.hists, p.hists...)
	prog.wins = append(prog.wins, p.wins...)
	prog.lines = append(prog.lines, p.lines...)
	for _, r := range rs.roots() {
		*r = off[*r]
	}
	rs.prog, rs.v = prog, v
	rs.assertCols = make([]*column, len(rs.asserts))
	for i, r := range rs.asserts {
		rs.assertCols[i] = &v[r]
	}
	rs.anteCols = make([]*column, len(rs.antes))
	for i, r := range rs.antes {
		rs.anteCols[i] = &v[r]
	}
}

// finish drains the program after n input steps, deciding the output
// steps still in flight, and closes any open violation at n. Events go
// to rs.evs, in step order.
func (rs *ruleStream) finish(n int, scratch *[blockSteps]bool) {
	for k0 := n; k0 < n+rs.delay; k0 += blockSteps {
		m := min(blockSteps, n+rs.delay-k0)
		rs.prog.exec(rs.lo, rs.hi, k0, m, n)
		rs.decide(k0, m, scratch)
	}
	if rs.open {
		rs.emit(blockSteps, rs.close(n))
	}
}

// decide decides the output steps completed by the block of m slots
// starting at input step k0 (none before the pipeline fills): it reads
// the aligned root columns, counts each step, and maintains the
// open-violation state, recording events in rs.evs. scratch holds the
// block's warmup masks while they are needed.
func (rs *ruleStream) decide(k0, m int, scratch *[blockSteps]bool) {
	lo := min(max(rs.delay-k0, 0), m)
	if lo == m {
		return
	}
	t0 := k0 - rs.delay // the output step slot 0 completes
	v := rs.v
	var supp []bool
	if t0+lo < rs.maskUntil {
		supp = rs.mask(t0, lo, m, scratch)
	}
	if ms := rs.machine; ms != nil {
		for j := lo; j < m; j++ {
			// A monitor step is active when the machine is outside its
			// initial state before or after the step's transition.
			active := ms.cur != ms.initial
			mark := ms.step(t0+j, v, j)
			if active || ms.cur != ms.initial {
				rs.active++
			}
			rs.record(t0+j, j, mark, supp != nil && supp[j])
		}
		return
	}
	// A rule with an assert that is no implication has no antecedents
	// to read: every step is active.
	if rs.everyAssertActive {
		rs.active += m - lo
	}
	for j := lo; j < m; j++ {
		for _, a := range rs.anteCols {
			if truthy(a[j]) {
				rs.active++
				break
			}
		}
		for i, a := range rs.assertCols {
			if !truthy(a[j]) {
				rs.record(t0+j, j, rs.msgs[i], supp != nil && supp[j])
				goto next
			}
		}
		if rs.open {
			rs.record(t0+j, j, "", false)
		}
	next:
	}
}

// mask runs the warmups over block slots [lo, m), whose output steps
// start at t0+lo, and counts the masked steps. It returns the slots'
// masks, or nil when no warmup can mask any of them: every warmup is
// a start-of-trace one that has expired.
func (rs *ruleStream) mask(t0, lo, m int, scratch *[blockSteps]bool) []bool {
	var supp []bool
	for i := range rs.warmups {
		w := &rs.warmups[i]
		if w.on < 0 && t0+lo >= w.window {
			continue
		}
		if supp == nil {
			supp = scratch[:m]
			clear(supp[lo:])
		}
		w.mask(t0, lo, rs.v, supp)
	}
	if supp == nil {
		return nil
	}
	for _, s := range supp[lo:] {
		if s {
			rs.suppressed++
		}
	}
	return supp
}

// record applies output step t's verdict, decided at block slot j: mark
// is the violated clause's message, "" when none.
func (rs *ruleStream) record(t, j int, mark string, suppressed bool) {
	if mark == "" || suppressed {
		if rs.open {
			rs.emit(j, rs.close(t))
		}
		return
	}
	if !rs.open {
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
	if rs.severity >= 0 {
		a := math.Abs(rs.v[rs.severity][j])
		if math.IsNaN(a) {
			a = math.Inf(1)
		}
		if a > rs.peak {
			rs.peak = a
		}
	}
}

// emit records an event decided at block slot j.
func (rs *ruleStream) emit(j int, e Event) {
	rs.evs = append(rs.evs, e)
	rs.evAt = append(rs.evAt, j)
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

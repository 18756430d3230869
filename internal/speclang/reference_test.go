package speclang

import (
	"fmt"
	"math"
	"time"
)

// This file is the reference semantics of the rule language, written as
// directly as possible: every expression is evaluated over the whole
// trace into a column of values and freshness bits, and every bounded
// temporal window is a plain scan over its steps. It is slow on
// purpose and shares no code with the compiled stream checker, the one
// production evaluator; the equivalence tests and FuzzStreamSemantics
// require the two to agree on violations, peaks and step counts.

// refEval evaluates every rule of the set over the source.
func refEval(rs *RuleSet, src Source, opts EvalOptions) ([]RuleResult, error) {
	out := make([]RuleResult, 0, len(rs.rules))
	for _, r := range rs.rules {
		res, err := refEvalRule(r, src, opts.DeltaMode)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// refSeries is an evaluated expression: a value per step plus the
// per-step freshness (whether any constituent signal updated at that
// step).
type refSeries struct {
	vals []float64
	upd  []bool
}

type refEvaluator struct {
	src    Source
	n      int
	period time.Duration
	mode   DeltaMode
	consts map[string]float64
	lets   map[string]*refSeries
}

func refEvalRule(r *Rule, src Source, mode DeltaMode) (RuleResult, error) {
	ev := &refEvaluator{
		src:    src,
		n:      src.NumSteps(),
		period: src.StepPeriod(),
		mode:   mode,
		consts: r.consts,
		lets:   make(map[string]*refSeries),
	}
	res := RuleResult{Name: r.Name, Description: r.Description, StepsChecked: ev.n}

	var lets []Let
	var warmups []Warmup
	var severity Expr
	if r.Kind == KindSpec {
		lets, warmups, severity = r.spec.Lets, r.spec.Warmups, r.spec.Severity
	} else {
		lets, warmups, severity = r.monitor.Lets, r.monitor.Warmups, r.monitor.Severity
	}
	for _, l := range lets {
		s, err := ev.eval(l.X)
		if err != nil {
			return res, err
		}
		ev.lets[l.Name] = s
	}
	suppressed, err := ev.warmupMask(warmups)
	if err != nil {
		return res, err
	}
	var sev []float64
	if severity != nil {
		s, err := ev.eval(severity)
		if err != nil {
			return res, err
		}
		sev = s.vals
	}

	var marks []string // per step: violation message, "" if none
	var active []bool  // per step: the rule was exercised
	if r.Kind == KindSpec {
		marks, active, err = ev.spec(r.spec)
	} else {
		marks, active, err = ev.monitor(r.monitor, r.initial)
	}
	if err != nil {
		return res, err
	}
	for t := 0; t < ev.n; t++ {
		if suppressed[t] {
			res.StepsSuppressed++
		}
		if active[t] {
			res.ActivationSteps++
		}
	}
	res.Violations = refViolations(marks, suppressed, sev, ev.period)
	return res, nil
}

// spec marks every step where some assert is false, and every step
// where some assert was exercised: its top-level antecedent held, or,
// for an assert that is not an implication, always.
func (ev *refEvaluator) spec(s *Spec) ([]string, []bool, error) {
	marks := make([]string, ev.n)
	active := make([]bool, ev.n)
	for i, a := range s.Asserts {
		vals, err := ev.eval(a)
		if err != nil {
			return nil, nil, err
		}
		line, _ := a.Pos()
		msg := fmt.Sprintf("assert #%d (line %d) failed", i+1, line)
		for t := 0; t < ev.n; t++ {
			if marks[t] == "" && !truthy(vals.vals[t]) {
				marks[t] = msg
			}
		}
		if impl, ok := a.(*Binary); ok && impl.Op == tokArrow {
			ante, err := ev.eval(impl.L)
			if err != nil {
				return nil, nil, err
			}
			for t := 0; t < ev.n; t++ {
				if truthy(ante.vals[t]) {
					active[t] = true
				}
			}
		} else {
			for t := range active {
				active[t] = true
			}
		}
	}
	return marks, active, nil
}

// monitor runs the state machine over the trace. A step is active when
// the machine is outside its initial state before or after the step's
// transition.
func (ev *refEvaluator) monitor(m *Monitor, initial int) ([]string, []bool, error) {
	marks := make([]string, ev.n)
	active := make([]bool, ev.n)
	states := make(map[string]int, len(m.States))
	for i, st := range m.States {
		states[st.Name] = i
	}
	guards := make([][]*refSeries, len(m.States)) // nil for after-transitions
	for i := range m.States {
		for _, tr := range m.States[i].Transitions {
			var g *refSeries
			if tr.Kind == TransWhen {
				var err error
				if g, err = ev.eval(tr.Guard); err != nil {
					return nil, nil, err
				}
			}
			guards[i] = append(guards[i], g)
		}
	}

	cur := initial
	entered := 0
	for t := 0; t < ev.n; t++ {
		active[t] = cur != initial
		for j, tr := range m.States[cur].Transitions {
			var fire bool
			if tr.Kind == TransWhen {
				fire = truthy(guards[cur][j].vals[t])
			} else {
				fire = time.Duration(t-entered)*ev.period >= tr.Deadline
			}
			if !fire {
				continue
			}
			if tr.Violate {
				marks[t] = tr.Msg
				if marks[t] == "" {
					marks[t] = fmt.Sprintf("violation in state %s", m.States[cur].Name)
				}
			}
			if tr.Target != "" && states[tr.Target] != cur {
				cur = states[tr.Target]
				entered = t + 1 // dwell counts from the next step
			}
			break // the first firing transition wins
		}
		if cur != initial {
			active[t] = true
		}
	}
	return marks, active, nil
}

// warmupMask computes the suppressed-step mask: a warmup without a
// trigger masks the first window of the trace, a triggered one masks a
// window from each rising edge of its trigger.
func (ev *refEvaluator) warmupMask(ws []Warmup) ([]bool, error) {
	mask := make([]bool, ev.n)
	for _, w := range ws {
		steps := max(int(w.Window/ev.period), 1)
		if w.On == nil {
			for t := 0; t < steps && t < ev.n; t++ {
				mask[t] = true
			}
			continue
		}
		on, err := ev.eval(w.On)
		if err != nil {
			return nil, err
		}
		for t := 0; t < ev.n; t++ {
			if truthy(on.vals[t]) && (t == 0 || !truthy(on.vals[t-1])) {
				for k := t; k < t+steps && k < ev.n; k++ {
					mask[k] = true
				}
			}
		}
	}
	return mask, nil
}

// refViolations groups consecutive violating, unsuppressed steps into
// intervals carrying the first step's message and the peak absolute
// severity, a NaN severity counting as +Inf.
func refViolations(marks []string, suppressed []bool, sev []float64, period time.Duration) []Violation {
	var out []Violation
	for t := 0; t < len(marks); {
		if marks[t] == "" || suppressed[t] {
			t++
			continue
		}
		v := Violation{StartStep: t, Msg: marks[t]}
		for ; t < len(marks) && marks[t] != "" && !suppressed[t]; t++ {
			if sev == nil {
				continue
			}
			a := math.Abs(sev[t])
			if math.IsNaN(a) {
				a = math.Inf(1)
			}
			v.Peak = math.Max(v.Peak, a)
		}
		v.EndStep = t
		v.Start = time.Duration(v.StartStep) * period
		v.End = time.Duration(v.EndStep) * period
		out = append(out, v)
	}
	return out
}

// column returns a series with every step computed by f from the step
// index.
func (ev *refEvaluator) column(upd []bool, f func(t int) float64) *refSeries {
	vals := make([]float64, ev.n)
	for t := range vals {
		vals[t] = f(t)
	}
	return &refSeries{vals: vals, upd: upd}
}

// fresh returns the step-wise OR of the operands' freshness.
func (ev *refEvaluator) fresh(args ...*refSeries) []bool {
	upd := make([]bool, ev.n)
	for _, a := range args {
		for t := range upd {
			upd[t] = upd[t] || a.upd[t]
		}
	}
	return upd
}

func (ev *refEvaluator) eval(e Expr) (*refSeries, error) {
	switch x := e.(type) {
	case *NumberLit:
		return ev.column(ev.fresh(), func(int) float64 { return x.Value }), nil
	case *BoolLit:
		return ev.column(ev.fresh(), func(int) float64 { return b2f(x.Value) }), nil
	case *Ident:
		if s, ok := ev.lets[x.Name]; ok {
			return s, nil
		}
		if v, ok := ev.consts[x.Name]; ok {
			return ev.column(ev.fresh(), func(int) float64 { return v }), nil
		}
		vals, ok := ev.src.Values(x.Name)
		if !ok {
			line, col := x.Pos()
			return nil, errAt(line, col, "signal %q is not present in the trace", x.Name)
		}
		upd, _ := ev.src.Updated(x.Name)
		return &refSeries{vals: vals, upd: upd}, nil
	case *Unary:
		s, err := ev.eval(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == tokNot {
			return ev.column(s.upd, func(t int) float64 { return b2f(!truthy(s.vals[t])) }), nil
		}
		return ev.column(s.upd, func(t int) float64 { return -s.vals[t] }), nil
	case *Binary:
		return ev.binary(x)
	case *Call:
		return ev.call(x)
	case *Temporal:
		return ev.temporal(x)
	default:
		return nil, fmt.Errorf("reference: unknown expression node %T", e)
	}
}

func (ev *refEvaluator) binary(x *Binary) (*refSeries, error) {
	l, err := ev.eval(x.L)
	if err != nil {
		return nil, err
	}
	r, err := ev.eval(x.R)
	if err != nil {
		return nil, err
	}
	var f func(a, b float64) float64
	switch x.Op {
	case tokPlus:
		f = func(a, b float64) float64 { return a + b }
	case tokMinus:
		f = func(a, b float64) float64 { return a - b }
	case tokStar:
		f = func(a, b float64) float64 { return a * b }
	case tokSlash:
		f = func(a, b float64) float64 { return a / b }
	case tokAnd:
		f = func(a, b float64) float64 { return b2f(truthy(a) && truthy(b)) }
	case tokOr:
		f = func(a, b float64) float64 { return b2f(truthy(a) || truthy(b)) }
	case tokArrow:
		f = func(a, b float64) float64 { return b2f(!truthy(a) || truthy(b)) }
	case tokLT, tokLE, tokGT, tokGE, tokEQ, tokNE:
		// A comparison involving NaN is false: an unverifiable claim
		// does not hold.
		cmp := map[tokenKind]func(a, b float64) bool{
			tokLT: func(a, b float64) bool { return a < b },
			tokLE: func(a, b float64) bool { return a <= b },
			tokGT: func(a, b float64) bool { return a > b },
			tokGE: func(a, b float64) bool { return a >= b },
			tokEQ: func(a, b float64) bool { return a == b },
			tokNE: func(a, b float64) bool { return a != b },
		}[x.Op]
		f = func(a, b float64) float64 {
			return b2f(!math.IsNaN(a) && !math.IsNaN(b) && cmp(a, b))
		}
	default:
		return nil, fmt.Errorf("reference: unknown binary operator %v", x.Op)
	}
	return ev.column(ev.fresh(l, r), func(t int) float64 { return f(l.vals[t], r.vals[t]) }), nil
}

func (ev *refEvaluator) call(x *Call) (*refSeries, error) {
	args := make([]*refSeries, len(x.Args))
	for i, a := range x.Args {
		s, err := ev.eval(a)
		if err != nil {
			return nil, err
		}
		args[i] = s
	}
	a := args[0]
	upd := ev.fresh(args...)
	var f func(t int) float64
	switch x.Func {
	case "prev", "delta", "rate", "changed":
		prev, gap := ev.prevOf(a)
		f = map[string]func(t int) float64{
			"prev":  func(t int) float64 { return prev[t] },
			"delta": func(t int) float64 { return a.vals[t] - prev[t] },
			"rate":  func(t int) float64 { return (a.vals[t] - prev[t]) / gap[t] },
			"changed": func(t int) float64 {
				d := a.vals[t] - prev[t]
				return b2f(!math.IsNaN(d) && d != 0)
			},
		}[x.Func]
	case "rise":
		f = func(t int) float64 { return b2f(truthy(a.vals[t]) && !(t > 0 && truthy(a.vals[t-1]))) }
	case "fall":
		f = func(t int) float64 { return b2f(!truthy(a.vals[t]) && t > 0 && truthy(a.vals[t-1])) }
	case "updated":
		f = func(t int) float64 { return b2f(a.upd[t]) }
	case "valid":
		f = func(t int) float64 { return b2f(!math.IsNaN(a.vals[t]) && !math.IsInf(a.vals[t], 0)) }
	case "abs":
		f = func(t int) float64 { return math.Abs(a.vals[t]) }
	case "min":
		f = func(t int) float64 { return math.Min(a.vals[t], args[1].vals[t]) }
	case "max":
		f = func(t int) float64 { return math.Max(a.vals[t], args[1].vals[t]) }
	case "cond":
		f = func(t int) float64 {
			if truthy(a.vals[t]) {
				return args[1].vals[t]
			}
			return args[2].vals[t]
		}
	default:
		return nil, fmt.Errorf("reference: unknown builtin %q", x.Func)
	}
	return ev.column(upd, f), nil
}

// prevOf returns, per step, the previous value of the series and the
// time in seconds between that value and the current one. Under
// DeltaNaive the previous value is the prior step's. Under
// DeltaUpdateAware it is the value of the update before the one
// currently held, so during held steps of a slow signal delta keeps
// showing the inter-update trend instead of reading zero.
func (ev *refEvaluator) prevOf(s *refSeries) (prev, gap []float64) {
	prev = make([]float64, ev.n)
	gap = make([]float64, ev.n)
	period := ev.period.Seconds()
	prevVal, prevStep := math.NaN(), -1
	curVal, curStep := math.NaN(), -1
	for t := 0; t < ev.n; t++ {
		gap[t] = period
		if ev.mode == DeltaNaive {
			prev[t] = math.NaN()
			if t > 0 {
				prev[t] = s.vals[t-1]
			}
			continue
		}
		if s.upd[t] {
			prevVal, prevStep = curVal, curStep
			curVal, curStep = s.vals[t], t
		}
		prev[t] = prevVal
		if prevStep >= 0 && curStep > prevStep {
			gap[t] = float64(curStep-prevStep) * period
		}
	}
	return prev, gap
}

// temporal evaluates a bounded window by scanning it. Future operators
// (always, eventually) look at steps [t+lo, t+hi], past operators (once,
// historically) at [t-hi, t-lo]. A window cut off by either end of the
// trace is judged on the steps it keeps, and missing evidence is
// benign: a truncated existential window holds even without a witness,
// and a window wholly outside the trace holds.
func (ev *refEvaluator) temporal(x *Temporal) (*refSeries, error) {
	s, err := ev.eval(x.X)
	if err != nil {
		return nil, err
	}
	lo, hi := int(x.Lo/ev.period), int(x.Hi/ev.period)
	exists := x.Op == "eventually" || x.Op == "once"
	return ev.column(s.upd, func(t int) float64 {
		a, b := t+lo, t+hi
		if x.Past() {
			a, b = t-hi, t-lo
		}
		truncated := a < 0 || b > ev.n-1
		a, b = max(a, 0), min(b, ev.n-1)
		if a > b {
			return 1
		}
		for k := a; k <= b; k++ {
			if truthy(s.vals[k]) == exists {
				return b2f(exists) // a witness, or a counterexample
			}
		}
		return b2f(!exists || truncated)
	}), nil
}

package speclang

import (
	"fmt"
	"sort"
	"time"
)

// builtins maps builtin function names to their arity.
var builtins = map[string]int{
	"prev":    1, // value at the previous step (or previous update)
	"delta":   1, // x - prev(x)
	"rate":    1, // delta(x) per second
	"changed": 1, // delta(x) != 0
	"rise":    1, // x is true now and was false at the previous step
	"fall":    1, // x is false now and was true at the previous step
	"updated": 1, // a fresh sample of the signal arrived this step
	"valid":   1, // x is finite (not NaN, not infinite)
	"abs":     1,
	"min":     2,
	"max":     2,
	"cond":    3, // cond(c, a, b): a when c is true, else b
}

// RuleKind distinguishes assertion rules from state machines.
type RuleKind int

const (
	// KindSpec is a per-step assertion rule.
	KindSpec RuleKind = iota + 1
	// KindMonitor is a state-machine rule.
	KindMonitor
)

// Rule is one compiled, executable rule.
type Rule struct {
	// Name is the rule name.
	Name string
	// Description is the optional doc string.
	Description string
	// Kind reports whether this is a spec or a monitor.
	Kind RuleKind

	set     *RuleSet
	consts  map[string]float64
	spec    *Spec
	monitor *Monitor
	initial int // initial state index for monitors
}

// Horizon returns the rule's temporal lookahead: how far past a step
// the trace must extend before that step's verdict is decidable. It is
// the online monitor's worst-case decision latency for the rule: the
// delay the compiler gives the rule at this period, zero for
// propositional and past-time rules, and otherwise the (nested) sum of
// the future-window upper bounds of its asserts, guards, severity and
// warmup triggers.
func (r *Rule) Horizon(period time.Duration) time.Duration {
	p, err := r.set.link([]*Rule{r}, period, DeltaUpdateAware)
	if err != nil {
		return 0 // a non-positive period; Compile checked the rule itself
	}
	return time.Duration(p.rules[0].delay) * period
}

// Signals returns the names of the trace signals the rule's compiled
// code loads, sorted: what a violation explanation needs to know which
// series to show. A let the rule never references loads nothing.
func (r *Rule) Signals() []string {
	// Which signals a rule loads does not depend on the step period.
	p, err := r.set.link([]*Rule{r}, time.Second, DeltaUpdateAware)
	if err != nil {
		return nil // unreachable: Compile checked the rule
	}
	out := p.signals()
	sort.Strings(out)
	return out
}

// RuleSet is a compiled specification file bound to a signal universe.
type RuleSet struct {
	rules []*Rule
	// names is the signal universe, and signals indexes it by name.
	names   []string
	signals map[string]int
}

// Rules returns the compiled rules in declaration order.
func (rs *RuleSet) Rules() []*Rule {
	out := make([]*Rule, len(rs.rules))
	copy(out, rs.rules)
	return out
}

// Rule returns the compiled rule with the given name.
func (rs *RuleSet) Rule(name string) (*Rule, bool) {
	for _, r := range rs.rules {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

// Compile validates the parsed file against the given signal universe
// (the names the monitor can observe) and returns an executable rule
// set. Compilation catches unknown identifiers, duplicate names, bad
// builtin arity and malformed state machines.
func Compile(f *File, signals []string) (*RuleSet, error) {
	rs := &RuleSet{names: append([]string(nil), signals...), signals: make(map[string]int, len(signals))}
	for i, s := range signals {
		rs.signals[s] = i
	}

	consts := make(map[string]float64, len(f.Consts))
	for _, c := range f.Consts {
		if _, dup := consts[c.Name]; dup {
			line, col := c.Pos()
			return nil, errAt(line, col, "duplicate const %q", c.Name)
		}
		if rs.isSignal(c.Name) {
			line, col := c.Pos()
			return nil, errAt(line, col, "const %q shadows a signal", c.Name)
		}
		consts[c.Name] = c.Value
	}

	seen := make(map[string]bool)
	addRule := func(name string, line, col int) error {
		if seen[name] {
			return errAt(line, col, "duplicate rule name %q", name)
		}
		seen[name] = true
		return nil
	}

	for i := range f.Specs {
		s := &f.Specs[i]
		line, col := s.Pos()
		if err := addRule(s.Name, line, col); err != nil {
			return nil, err
		}
		if err := rs.checkCommon(consts, s.Lets, s.Warmups, s.Severity); err != nil {
			return nil, err
		}
		env := rs.letEnv(consts, s.Lets)
		for _, a := range s.Asserts {
			if err := rs.checkExpr(a, env); err != nil {
				return nil, err
			}
		}
		rs.rules = append(rs.rules, &Rule{
			Name: s.Name, Description: s.Description, Kind: KindSpec,
			set: rs, consts: consts, spec: s,
		})
	}

	for i := range f.Monitors {
		m := &f.Monitors[i]
		line, col := m.Pos()
		if err := addRule(m.Name, line, col); err != nil {
			return nil, err
		}
		if err := rs.checkCommon(consts, m.Lets, m.Warmups, m.Severity); err != nil {
			return nil, err
		}
		initial, err := rs.checkMonitor(consts, m)
		if err != nil {
			return nil, err
		}
		rs.rules = append(rs.rules, &Rule{
			Name: m.Name, Description: m.Description, Kind: KindMonitor,
			set: rs, consts: consts, monitor: m, initial: initial,
		})
	}
	return rs, nil
}

// isSignal reports whether name is in the rule set's signal universe.
func (rs *RuleSet) isSignal(name string) bool {
	_, ok := rs.signals[name]
	return ok
}

// letEnv returns the set of names visible to expressions in a rule with
// the given lets: signals, constants, and all lets (checked for order
// separately).
func (rs *RuleSet) letEnv(consts map[string]float64, lets []Let) map[string]bool {
	env := make(map[string]bool, len(consts)+len(lets))
	for name := range consts {
		env[name] = true
	}
	for _, l := range lets {
		env[l.Name] = true
	}
	return env
}

func (rs *RuleSet) checkCommon(consts map[string]float64, lets []Let, warmups []Warmup, severity Expr) error {
	partial := make(map[string]bool, len(consts))
	for name := range consts {
		partial[name] = true
	}
	for _, l := range lets {
		line, col := l.Pos()
		if rs.isSignal(l.Name) {
			return errAt(line, col, "let %q shadows a signal", l.Name)
		}
		if partial[l.Name] {
			return errAt(line, col, "duplicate binding %q", l.Name)
		}
		if err := rs.checkExpr(l.X, partial); err != nil {
			return err
		}
		partial[l.Name] = true
	}
	env := rs.letEnv(consts, lets)
	for _, w := range warmups {
		line, col := w.Pos()
		if w.Window <= 0 {
			return errAt(line, col, "warmup window must be positive")
		}
		if w.On != nil {
			if err := rs.checkExpr(w.On, env); err != nil {
				return err
			}
		}
	}
	if severity != nil {
		if err := rs.checkExpr(severity, env); err != nil {
			return err
		}
	}
	return nil
}

func (rs *RuleSet) checkMonitor(consts map[string]float64, m *Monitor) (int, error) {
	env := rs.letEnv(consts, m.Lets)
	names := make(map[string]bool, len(m.States))
	initial := -1
	for i, st := range m.States {
		line, col := st.Pos()
		if names[st.Name] {
			return 0, errAt(line, col, "duplicate state %q", st.Name)
		}
		names[st.Name] = true
		if st.Initial {
			if initial >= 0 {
				return 0, errAt(line, col, "multiple initial states")
			}
			initial = i
		}
	}
	if initial < 0 {
		initial = 0
	}
	for _, st := range m.States {
		for _, tr := range st.Transitions {
			line, col := tr.Pos()
			if tr.Kind == TransWhen {
				if err := rs.checkExpr(tr.Guard, env); err != nil {
					return 0, err
				}
			}
			if tr.Target != "" && !names[tr.Target] {
				return 0, errAt(line, col, "unknown target state %q", tr.Target)
			}
			if !tr.Violate && tr.Target == "" {
				return 0, errAt(line, col, "non-violating transition needs a target state")
			}
		}
	}
	return initial, nil
}

// checkExpr resolves identifiers and validates builtin usage. env holds
// the non-signal names visible at this point.
func (rs *RuleSet) checkExpr(e Expr, env map[string]bool) error {
	switch x := e.(type) {
	case *NumberLit, *BoolLit:
		return nil
	case *Ident:
		if rs.isSignal(x.Name) || env[x.Name] {
			return nil
		}
		line, col := x.Pos()
		return errAt(line, col, "unknown identifier %q", x.Name)
	case *Unary:
		return rs.checkExpr(x.X, env)
	case *Binary:
		if err := rs.checkExpr(x.L, env); err != nil {
			return err
		}
		return rs.checkExpr(x.R, env)
	case *Call:
		arity, ok := builtins[x.Func]
		line, col := x.Pos()
		if !ok {
			return errAt(line, col, "unknown function %q", x.Func)
		}
		if len(x.Args) != arity {
			return errAt(line, col, "%s takes %d argument(s), got %d", x.Func, arity, len(x.Args))
		}
		if x.Func == "updated" {
			id, ok := x.Args[0].(*Ident)
			if !ok || !rs.isSignal(id.Name) {
				return errAt(line, col, "updated() requires a signal name argument")
			}
		}
		for _, a := range x.Args {
			if err := rs.checkExpr(a, env); err != nil {
				return err
			}
		}
		return nil
	case *Temporal:
		return rs.checkExpr(x.X, env)
	default:
		return fmt.Errorf("speclang: internal error: unknown expression node %T", e)
	}
}

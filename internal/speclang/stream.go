package speclang

import (
	"fmt"
	"math"
	"time"
)

// This file implements rule evaluation, the one evaluator behind both
// the offline and the online oracle. The paper monitored offline "due
// to time and complexity constraints of the experiments" but notes that
// "there is no fundamental reason the monitoring could not be done at
// runtime"; this evaluator serves both: RuleSet.Eval feeds it the rows
// of a recorded grid, the online monitor the steps of a live frame
// stream. It consumes aligned steps one at a time and keeps only bounded
// state (buffers no longer than the temporal horizon). The tests pin it
// against the reference semantics in reference_test.go.
//
// Each rule compiles once into a program: a flat, topologically ordered
// instruction slice over a float64/bool register file. Every register
// carries a delay: the value it holds while input step k is consumed
// belongs to step k-delay. A bounded eventually[lo:hi] can only decide
// step s once step s+hi has been seen, so its delay is hi steps plus
// its operand's. Delays are resolved at compile time: operands of equal
// delay combine in place, and only an operand whose delay is shorter
// than its sibling's is routed through a fixed-length delay line.
// Within a rule, inlined lets and repeated subexpressions compile to one
// instruction each; that sharing is exact because every instruction is
// a deterministic function of its operands' step sequences. Nothing is
// shared across rules, so per-rule timing stays exact. After the final
// input step, Finish keeps stepping the programs with exhausted inputs,
// draining them with the reference's truncated-window semantics.

// opcode selects what one instruction computes.
type opcode uint8

const (
	opLoad opcode = iota // compiles to a load, not an instruction
	opNot
	opNeg
	opAdd
	opSub
	opMul
	opDiv
	opAnd
	opOr
	opImplies
	opLT
	opLE
	opGT
	opGE
	opEQ
	opNE
	opValid
	opAbs
	opMin
	opMax
	opCond
	opUpdated
	opRise
	opFall
	opPrev
	opDelta
	opRate
	opChanged
	opAlways
	opEventually
	opOnce
	opHistorically
	opDelay // the operand, delayed by a fixed number of steps
)

// binaryOps maps binary operator tokens to opcodes.
var binaryOps = map[tokenKind]opcode{
	tokPlus: opAdd, tokMinus: opSub, tokStar: opMul, tokSlash: opDiv,
	tokAnd: opAnd, tokOr: opOr, tokArrow: opImplies,
	tokLT: opLT, tokLE: opLE, tokGT: opGT, tokGE: opGE, tokEQ: opEQ, tokNE: opNE,
}

// callOps maps builtin names to opcodes.
var callOps = map[string]opcode{
	"valid": opValid, "abs": opAbs, "min": opMin, "max": opMax, "cond": opCond,
	"updated": opUpdated, "rise": opRise, "fall": opFall,
	"prev": opPrev, "delta": opDelta, "rate": opRate, "changed": opChanged,
}

// temporalOps maps temporal operator names to opcodes.
var temporalOps = map[string]opcode{
	"always": opAlways, "eventually": opEventually, "once": opOnce, "historically": opHistorically,
}

// instr is one program instruction. It writes register dst from the
// operand registers a, b and c; stateful opcodes keep their state in
// the program's per-kind slice at index state.
type instr struct {
	op      opcode
	dst     int32
	a, b, c int32
	state   int32
	// start is the operands' delay: the first input step at which they
	// hold a value. end is dst's delay; only temporal lookahead and
	// delay lines make it exceed start.
	start, end int32
}

// reg is one register: a value and its freshness bit (whether any
// constituent signal updated at the step the value belongs to).
type reg struct {
	v float64
	u bool
}

// load copies input signal src into register dst.
type load struct {
	src, dst int32
}

// histState is the memory of prev/delta/rate/changed: the previous step
// under DeltaNaive, the previous update under DeltaUpdateAware.
type histState struct {
	// naive
	started bool
	last    float64
	// update-aware
	prevUpd, curVal   float64
	prevStep, curStep int
	n                 int
}

// window is the state of one bounded temporal operator: the truthiness
// of its operand over a ring indexed by operand step, and how many
// operand steps in the current window are truthy.
type window struct {
	truth  []bool // future: hi-lo+1 slots; past: hi+1 slots
	fresh  []bool // future only: operand freshness, delayed hi steps
	lo, hi int
	count  int
	first  int // oldest operand step in the window (future operators)
	seen   int // operand steps consumed
}

// program is one rule's compiled evaluator.
type program struct {
	loads []load
	code  []instr
	regs  []reg
	hists []histState
	edges []bool // rise/fall: the operand's previous truthiness
	wins  []window
	lines [][]reg // delay lines, indexed by operand step modulo length

	mode   DeltaMode
	period float64 // seconds
}

// run executes input step k. n is the number of input steps, or
// math.MaxInt while the trace is still open; at k >= n the inputs are
// exhausted and only the outputs still owed are produced: delay lines
// shift out and future windows emit truncated verdicts.
//
// A register of delay d holds step k-d once step k has run, whenever
// 0 <= k-d < n. Stateless instructions run unconditionally: outside
// that range they write values no valid reader consumes. Stateful ones
// advance only on valid operands.
func (p *program) run(vals []float64, upd []bool, k, n int) {
	r := p.regs
	if k < n {
		for _, l := range p.loads {
			r[l.dst] = reg{vals[l.src], upd[l.src]}
		}
	}
	for i := range p.code {
		in := &p.code[i]
		x, y := &r[in.a], &r[in.b]
		var out reg
		switch in.op {
		case opNot:
			out = reg{b2f(!truthy(x.v)), x.u}
		case opNeg:
			out = reg{-x.v, x.u}
		case opAdd:
			out = reg{x.v + y.v, x.u || y.u}
		case opSub:
			out = reg{x.v - y.v, x.u || y.u}
		case opMul:
			out = reg{x.v * y.v, x.u || y.u}
		case opDiv:
			out = reg{x.v / y.v, x.u || y.u}
		case opAnd:
			out = reg{b2f(truthy(x.v) && truthy(y.v)), x.u || y.u}
		case opOr:
			out = reg{b2f(truthy(x.v) || truthy(y.v)), x.u || y.u}
		case opImplies:
			out = reg{b2f(!truthy(x.v) || truthy(y.v)), x.u || y.u}
		// Go's ordered comparisons and == are already false on NaN,
		// the language's rule; only != needs the explicit test.
		case opLT:
			out = reg{b2f(x.v < y.v), x.u || y.u}
		case opLE:
			out = reg{b2f(x.v <= y.v), x.u || y.u}
		case opGT:
			out = reg{b2f(x.v > y.v), x.u || y.u}
		case opGE:
			out = reg{b2f(x.v >= y.v), x.u || y.u}
		case opEQ:
			out = reg{b2f(x.v == y.v), x.u || y.u}
		case opNE:
			out = reg{b2f(x.v != y.v && x.v == x.v && y.v == y.v), x.u || y.u}
		case opValid:
			out = reg{b2f(!math.IsNaN(x.v) && !math.IsInf(x.v, 0)), x.u}
		case opAbs:
			out = reg{math.Abs(x.v), x.u}
		case opMin:
			out = reg{math.Min(x.v, y.v), x.u || y.u}
		case opMax:
			out = reg{math.Max(x.v, y.v), x.u || y.u}
		case opCond:
			z := &r[in.c]
			out.u = x.u || y.u || z.u
			if truthy(x.v) {
				out.v = y.v
			} else {
				out.v = z.v
			}
		case opUpdated:
			out = reg{b2f(x.u), x.u}
		case opRise, opFall:
			if !valid(k, in.start, n) {
				continue
			}
			cur := truthy(x.v)
			was := &p.edges[in.state]
			if in.op == opRise {
				out.v = b2f(cur && !*was)
			} else {
				out.v = b2f(!cur && *was)
			}
			*was, out.u = cur, x.u
		case opPrev, opDelta, opRate, opChanged:
			if !valid(k, in.start, n) {
				continue
			}
			out = reg{p.hist(in, x.v, x.u), x.u}
		case opOnce, opHistorically:
			if !valid(k, in.start, n) {
				continue
			}
			out = reg{p.wins[in.state].past(truthy(x.v), in.op == opOnce), x.u}
		case opAlways, opEventually:
			w := &p.wins[in.state]
			if valid(k, in.start, n) {
				w.push(truthy(x.v), x.u)
			}
			if !valid(k, in.end, n) {
				continue
			}
			out.v, out.u = w.future(k-int(in.end), in.op == opEventually)
		case opDelay:
			if k < int(in.start) {
				continue
			}
			line := p.lines[in.state]
			slot := &line[(k-int(in.start))%len(line)]
			out = *slot
			if k-int(in.start) < n {
				*slot = *x
			}
		}
		r[in.dst] = out
	}
}

// valid reports whether a register of the given delay holds an input
// step's value at step k of n.
func valid(k int, delay int32, n int) bool {
	return uint(k-int(delay)) < uint(n)
}

// hist advances a prev/delta/rate/changed instruction by one operand
// output and returns its value.
func (p *program) hist(in *instr, x float64, fresh bool) float64 {
	h := &p.hists[in.state]
	var prev, gap float64
	if p.mode == DeltaNaive {
		prev = math.NaN()
		if h.started {
			prev = h.last
		}
		gap = p.period
		h.started, h.last = true, x
	} else {
		if fresh {
			h.prevUpd, h.prevStep = h.curVal, h.curStep
			h.curVal, h.curStep = x, h.n
		}
		prev = h.prevUpd
		if h.prevStep >= 0 && h.curStep > h.prevStep {
			gap = float64(h.curStep-h.prevStep) * p.period
		} else {
			gap = p.period
		}
		h.n++
	}
	switch in.op {
	case opPrev:
		return prev
	case opDelta:
		return x - prev
	case opRate:
		return (x - prev) / gap
	default: // opChanged
		d := x - prev
		return b2f(!math.IsNaN(d) && d != 0)
	}
}

// push feeds one operand output to a future window.
func (w *window) push(t, fresh bool) {
	j := w.seen
	size := len(w.truth)
	slot := j % size
	if j >= size { // operand step j-size leaves through the slot j reuses
		if w.truth[slot] {
			w.count--
		}
		w.first = j - size + 1
	}
	w.truth[slot] = t
	if t {
		w.count++
	}
	w.fresh[j%len(w.fresh)] = fresh
	w.seen++
}

// future returns the verdict for output step o, whose window is operand
// steps [o+lo, o+hi]. Once the inputs are exhausted the window is
// truncated at the last operand step; an empty or witness-free
// truncated window is "no evidence", benign for both operators, as in
// the reference semantics.
func (w *window) future(o int, eventually bool) (float64, bool) {
	fresh := w.fresh[o%len(w.fresh)]
	if o+w.hi < w.seen { // complete window
		if eventually {
			return b2f(w.count > 0), fresh
		}
		return b2f(w.count == len(w.truth)), fresh
	}
	for w.first < o+w.lo && w.first < w.seen {
		if w.truth[w.first%len(w.truth)] {
			w.count--
		}
		w.first++
	}
	if eventually {
		return 1, fresh
	}
	return b2f(w.count == w.seen-w.first), fresh
}

// past feeds operand step t to a once/historically window and returns
// the verdict for step t over operand steps [t-hi, t-lo]. Past windows
// need no lookahead, so the operator adds no delay.
func (w *window) past(truth, once bool) float64 {
	t := w.seen
	w.seen++
	size := len(w.truth)
	slot := t % size
	if t > w.hi && w.truth[slot] { // step t-hi-1 leaves the window
		w.count--
	}
	w.truth[slot] = truth
	if t >= w.lo && w.truth[(t-w.lo)%size] { // step t-lo enters it
		w.count++
	}
	switch {
	case t < w.lo:
		return 1 // the window lies entirely before the trace
	case once:
		return b2f(w.count > 0 || t < w.hi) // a witness, or a truncated window
	default:
		return b2f(w.count == t-w.lo-max(0, t-w.hi)+1)
	}
}

// compiler lowers one rule's expressions into a program, sharing
// identical subexpressions.
type compiler struct {
	p       *program
	signals map[string]int // name -> input index
	consts  map[string]float64
	lets    map[string]Expr
	period  time.Duration

	delay     []int // per register
	shared    map[instrKey]int32
	constRegs map[uint64]int32 // by value bits
}

// instrKey identifies an instruction by what it computes: two
// instructions with equal keys produce equal step sequences. args holds
// operand registers (-1 when unused); opLoad's first arg is the input
// signal index instead.
type instrKey struct {
	op     opcode
	args   [3]int32
	lo, hi int
}

func newCompiler(signals map[string]int, consts map[string]float64, lets []Let, mode DeltaMode, period time.Duration) *compiler {
	c := &compiler{
		p:         &program{mode: mode, period: period.Seconds()},
		signals:   signals,
		consts:    consts,
		lets:      make(map[string]Expr, len(lets)),
		period:    period,
		shared:    make(map[instrKey]int32),
		constRegs: make(map[uint64]int32),
	}
	for _, l := range lets {
		c.lets[l.Name] = l.X
	}
	return c
}

// register allocates a register with the given delay.
func (c *compiler) register(v float64, delay int) int32 {
	c.p.regs = append(c.p.regs, reg{v: v})
	c.delay = append(c.delay, delay)
	return int32(len(c.p.regs) - 1)
}

// constant returns a register preset to v; no instruction writes it.
func (c *compiler) constant(v float64) int32 {
	bits := math.Float64bits(v)
	if r, ok := c.constRegs[bits]; ok {
		return r
	}
	r := c.register(v, 0)
	c.constRegs[bits] = r
	return r
}

// align delays register r to the given delay through a delay line,
// unless it already has it.
func (c *compiler) align(r int32, delay int) int32 {
	if l := delay - c.delay[r]; l > 0 {
		return c.emit(instrKey{op: opDelay, args: [3]int32{r, -1, -1}, hi: l})
	}
	return r
}

// emit returns the register holding k's result, appending the
// instruction unless an identical one exists. Operands of unequal delay
// are aligned through delay lines, so the instruction itself combines
// in place. The key is looked up before alignment: the same operands
// always align the same way.
func (c *compiler) emit(k instrKey) int32 {
	if r, ok := c.shared[k]; ok {
		return r
	}
	p := c.p
	if k.op == opLoad {
		dst := c.register(0, 0)
		p.loads = append(p.loads, load{src: k.args[0], dst: dst})
		c.shared[k] = dst
		return dst
	}
	start := 0
	for _, r := range k.args {
		if r >= 0 {
			start = max(start, c.delay[r])
		}
	}
	operands := k.args
	for i, r := range operands {
		if r >= 0 {
			operands[i] = c.align(r, start)
		} else {
			operands[i] = 0 // unused; any register is safe to address
		}
	}
	in := instr{op: k.op, a: operands[0], b: operands[1], c: operands[2], state: -1, start: int32(start), end: int32(start)}
	switch k.op {
	case opRise, opFall:
		in.state = int32(len(p.edges))
		p.edges = append(p.edges, false)
	case opPrev, opDelta, opRate, opChanged:
		in.state = int32(len(p.hists))
		p.hists = append(p.hists, histState{prevUpd: math.NaN(), curVal: math.NaN(), prevStep: -1, curStep: -1})
	case opAlways, opEventually:
		in.state = int32(len(p.wins))
		p.wins = append(p.wins, window{truth: make([]bool, k.hi-k.lo+1), fresh: make([]bool, k.hi+1), lo: k.lo, hi: k.hi})
		in.end += int32(k.hi)
	case opOnce, opHistorically:
		in.state = int32(len(p.wins))
		p.wins = append(p.wins, window{truth: make([]bool, k.hi+1), lo: k.lo, hi: k.hi})
	case opDelay:
		in.state = int32(len(p.lines))
		p.lines = append(p.lines, make([]reg, k.hi))
		in.end += int32(k.hi)
	}
	in.dst = c.register(0, int(in.end))
	p.code = append(p.code, in)
	c.shared[k] = in.dst
	return in.dst
}

// build compiles e and returns its result register.
func (c *compiler) build(e Expr) (int32, error) {
	k := instrKey{args: [3]int32{-1, -1, -1}}
	switch x := e.(type) {
	case *NumberLit:
		return c.constant(x.Value), nil
	case *BoolLit:
		return c.constant(b2f(x.Value)), nil
	case *Ident:
		if le, ok := c.lets[x.Name]; ok {
			return c.build(le) // inlined; sharing makes every reference one register
		}
		if v, ok := c.consts[x.Name]; ok {
			return c.constant(v), nil
		}
		idx, ok := c.signals[x.Name]
		if !ok {
			line, col := x.Pos()
			return 0, errAt(line, col, "signal %q is not present in the stream", x.Name)
		}
		k.op, k.args[0] = opLoad, int32(idx)
		return c.emit(k), nil
	case *Unary:
		k.op = opNeg
		if x.Op == tokNot {
			k.op = opNot
		}
		return c.buildArgs(k, x.X)
	case *Binary:
		op, ok := binaryOps[x.Op]
		if !ok {
			return 0, fmt.Errorf("speclang: internal error: unknown binary operator %v", x.Op)
		}
		k.op = op
		return c.buildArgs(k, x.L, x.R)
	case *Call:
		op, ok := callOps[x.Func]
		if !ok {
			return 0, fmt.Errorf("speclang: internal error: unknown builtin %q", x.Func)
		}
		k.op = op
		return c.buildArgs(k, x.Args...)
	case *Temporal:
		op, ok := temporalOps[x.Op]
		if !ok {
			return 0, fmt.Errorf("speclang: internal error: unknown temporal operator %q", x.Op)
		}
		k.op, k.lo, k.hi = op, int(x.Lo/c.period), int(x.Hi/c.period)
		return c.buildArgs(k, x.X)
	default:
		return 0, fmt.Errorf("speclang: internal error: unknown expression node %T", e)
	}
}

// buildArgs compiles the operands into k's args and emits k.
func (c *compiler) buildArgs(k instrKey, args ...Expr) (int32, error) {
	for i, a := range args {
		r, err := c.build(a)
		if err != nil {
			return 0, err
		}
		k.args[i] = r
	}
	return c.emit(k), nil
}

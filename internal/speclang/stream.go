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
// stream. It consumes aligned steps in blocks and keeps only bounded
// state (buffers no longer than the temporal horizon). The tests pin it
// against the reference semantics in reference_test.go.
//
// Each rule compiles once into a program: a flat, topologically ordered
// instruction slice. The checker links the rules' programs into one,
// over a register file of columns, and runs it a block of input steps
// at a time, one instruction over the whole block before the next, so
// opcode dispatch is paid per block, not per step; a single step is a
// one-step block. Every register carries a delay: the value its column
// holds for input step k belongs to step k-delay. A bounded
// eventually[lo:hi] can only decide step s once step s+hi has been
// seen, so its delay is hi steps plus its operand's. Delays are resolved
// at compile time: operands of equal delay combine in place, and only
// an operand whose delay is shorter than its sibling's is routed
// through a fixed-length delay line. Within a rule, inlined lets and
// repeated subexpressions compile to one instruction each; that sharing
// is exact because every instruction is a deterministic function of its
// operands' step sequences. Rules share only the input columns, and
// each owns a contiguous range of the linked program, so per-rule
// timing stays exact. After the final input step, Finish keeps running
// each rule's range with exhausted inputs, draining it with the
// reference's truncated-window semantics.

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

// blockSteps is the number of input steps one block executes, and so
// the length of every register column. Offline checks run full blocks;
// the online monitor runs one block per push call, however few steps
// that call finalized.
const blockSteps = 32

// column is one register's values over a block, slot j holding input
// step k0+j; freshColumn is its freshness bits.
type (
	column      [blockSteps]float64
	freshColumn [blockSteps]bool
)

// instr is one program instruction. It writes register dst from the
// operand registers a, b and c; stateful opcodes keep their state in
// the program's per-kind slice at index state. Until the checker links
// the program, registers are numbered per rule; after, each indexes the
// checker's register file (see program.v).
type instr struct {
	op opcode
	// fresh is set when some reader consumes dst's freshness column
	// (see markFresh); otherwise only its value column is computed.
	fresh   bool
	dst     int32
	a, b, c int32
	state   int32
	// start is the operands' delay: the first input step at which they
	// hold a value. end is dst's delay; only temporal lookahead and
	// delay lines make it exceed start.
	start, end int32

	// The linked value columns of dst, a, b and c, resolved once so
	// the executor indexes no register file for values. Freshness,
	// read far more rarely, is indexed from the register file.
	out, x, y, z *column
}

// arity returns how many operands an instruction of this opcode reads.
func (op opcode) arity() int {
	switch op {
	case opAdd, opSub, opMul, opDiv, opAnd, opOr, opImplies,
		opLT, opLE, opGT, opGE, opEQ, opNE, opMin, opMax:
		return 2
	case opCond:
		return 3
	}
	return 1
}

// reg is one delay-line slot: a value and its freshness bit (whether
// any constituent signal updated at the step the value belongs to).
type reg struct {
	v float64
	u bool
}

// load binds input signal src to register dst.
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
	// Future operators walk their rings by cursor: pos and fpos are the
	// truth and fresh slots the next push writes, out the fresh slot of
	// the next output step.
	pos, fpos, out int
}

// line is a delay line: a ring of operand slots indexed by operand step
// modulo its length, plus the slot the next operand step uses.
type line struct {
	slots []reg
	pos   int
}

// program is one rule's compiled evaluator.
type program struct {
	loads []load
	code  []instr
	// init is each register's preset value: a constant's value, zero
	// for every other register.
	init  []float64
	hists []histState
	edges []bool // rise/fall: the operand's previous truthiness
	wins  []window
	lines []line

	// v and u are the checker's register file, shared by every rule
	// and set when the checker links the program. Register r is the
	// value column v[r] and the freshness column u[r]; slot j of a
	// block holds input step k0+j. A load register is a column of the
	// checker's one input block.
	v []column
	u []freshColumn

	mode   DeltaMode
	period float64 // seconds
}

// exec runs instructions code[lo:hi] over input steps k0 through
// k0+m-1 (0 < m <= blockSteps), one instruction over the whole block at
// a time: the whole program for a block, one rule's range for a timed
// step or a rule's drain. n is the number of input
// steps, or math.MaxInt while the trace is still open; at k >= n the
// inputs are exhausted and only the outputs still owed are produced:
// delay lines shift out and future windows emit truncated verdicts.
//
// A register of delay d holds step k-d in slot k-k0 whenever
// 0 <= k-d < n. Stateless instructions fill their whole column: outside
// that range they write values no valid reader consumes. Stateful ones
// walk their column in step order and advance only on valid operands.
func (p *program) exec(lo, hi, k0, m, n int) {
	for i := p.execInline(lo, hi, k0, m, n); i < hi; i = p.execInline(i+1, hi, k0, m, n) {
		p.execRing(&p.code[i], k0, m, n)
	}
}

// execInline runs instructions from code[i], short of code[hi], until
// the next one that keeps a ring buffer (a temporal window or a delay
// line), and returns that one's index (hi when none). The loop makes no
// call, so its state stays in machine registers.
func (p *program) execInline(i, hi, k0, m, n int) int {
	if m > blockSteps {
		panic("speclang: block exceeds blockSteps")
	}
	code, u := p.code[:hi], p.u
	for ; i < len(code); i++ {
		in := &code[i]
		dst, x := in.out[:m], in.x
		switch in.op {
		case opNot:
			for j := range dst {
				dst[j] = b2f(!truthy(x[j]))
			}
		case opNeg:
			for j := range dst {
				dst[j] = -x[j]
			}
		case opAdd:
			y := in.y
			for j := range dst {
				dst[j] = x[j] + y[j]
			}
		case opSub:
			y := in.y
			for j := range dst {
				dst[j] = x[j] - y[j]
			}
		case opMul:
			y := in.y
			for j := range dst {
				dst[j] = x[j] * y[j]
			}
		case opDiv:
			y := in.y
			for j := range dst {
				dst[j] = x[j] / y[j]
			}
		case opAnd:
			y := in.y
			for j := range dst {
				dst[j] = b2f(truthy(x[j]) && truthy(y[j]))
			}
		case opOr:
			y := in.y
			for j := range dst {
				dst[j] = b2f(truthy(x[j]) || truthy(y[j]))
			}
		case opImplies:
			y := in.y
			for j := range dst {
				dst[j] = b2f(!truthy(x[j]) || truthy(y[j]))
			}
		// Go's ordered comparisons and == are already false on NaN,
		// the language's rule; only != needs the explicit test.
		case opLT:
			y := in.y
			for j := range dst {
				dst[j] = b2f(x[j] < y[j])
			}
		case opLE:
			y := in.y
			for j := range dst {
				dst[j] = b2f(x[j] <= y[j])
			}
		case opGT:
			y := in.y
			for j := range dst {
				dst[j] = b2f(x[j] > y[j])
			}
		case opGE:
			y := in.y
			for j := range dst {
				dst[j] = b2f(x[j] >= y[j])
			}
		case opEQ:
			y := in.y
			for j := range dst {
				dst[j] = b2f(x[j] == y[j])
			}
		case opNE:
			y := in.y
			for j := range dst {
				dst[j] = b2f(x[j] != y[j] && x[j] == x[j] && y[j] == y[j])
			}
		case opValid:
			for j := range dst {
				dst[j] = b2f(!math.IsNaN(x[j]) && !math.IsInf(x[j], 0))
			}
		case opAbs:
			for j := range dst {
				dst[j] = math.Abs(x[j])
			}
		case opMin:
			y := in.y
			for j := range dst {
				dst[j] = min(x[j], y[j])
			}
		case opMax:
			y := in.y
			for j := range dst {
				dst[j] = max(x[j], y[j])
			}
		case opCond:
			y, z := in.y, in.z
			for j := range dst {
				if truthy(x[j]) {
					dst[j] = y[j]
				} else {
					dst[j] = z[j]
				}
			}
		case opUpdated:
			xu := &u[in.a]
			for j := range dst {
				dst[j] = b2f(xu[j])
			}
		case opRise, opFall:
			lo, hi := span(k0, m, in.start, n)
			was, rise := p.edges[in.state], in.op == opRise
			for j := lo; j < hi; j++ {
				cur := truthy(x[j])
				if rise {
					dst[j] = b2f(cur && !was)
				} else {
					dst[j] = b2f(!cur && was)
				}
				was = cur
			}
			p.edges[in.state] = was
			if in.fresh {
				for j := lo; j < hi; j++ {
					u[in.dst][j] = u[in.a][j]
				}
			}
			continue
		case opPrev, opDelta, opRate, opChanged:
			lo, hi := span(k0, m, in.start, n)
			h := &p.hists[in.state]
			for j := lo; j < hi; j++ {
				var prev float64
				if p.mode == DeltaNaive {
					prev = h.naive(x[j])
				} else {
					prev = h.updateAware(x[j], u[in.a][j])
				}
				switch in.op {
				case opPrev:
					dst[j] = prev
				case opDelta:
					dst[j] = x[j] - prev
				case opRate:
					dst[j] = (x[j] - prev) / h.gap(p.mode, p.period)
				default: // opChanged
					d := x[j] - prev
					dst[j] = b2f(!math.IsNaN(d) && d != 0)
				}
			}
			if in.fresh {
				for j := lo; j < hi; j++ {
					u[in.dst][j] = u[in.a][j]
				}
			}
			continue
		default:
			return i
		}
		if !in.fresh {
			continue
		}
		// A value is fresh when any of its operands is.
		du, xu := u[in.dst][:m], &u[in.a]
		switch in.op.arity() {
		case 1:
			for j := range du {
				du[j] = xu[j]
			}
		case 2:
			yu := &u[in.b]
			for j := range du {
				du[j] = xu[j] || yu[j]
			}
		default:
			yu, zu := &u[in.b], &u[in.c]
			for j := range du {
				du[j] = xu[j] || yu[j] || zu[j]
			}
		}
	}
	return i
}

// execRing runs one temporal window or delay line over a block: it
// walks the column in step order, advancing its state only at the slots
// whose operand step is valid, and writes dst only where its output
// step is.
func (p *program) execRing(in *instr, k0, m, n int) {
	dst, x := in.out[:m], in.x
	du, xu := &p.u[in.dst], &p.u[in.a]
	switch in.op {
	case opOnce, opHistorically:
		lo, hi := span(k0, m, in.start, n)
		w, once := &p.wins[in.state], in.op == opOnce
		for j := lo; j < hi; j++ {
			dst[j] = w.past(truthy(x[j]), once)
		}
		if in.fresh {
			copy(du[lo:hi], xu[lo:hi])
		}
	case opAlways, opEventually:
		// The operand enters at its valid slots and verdicts leave at
		// dst's, end-start slots later; interleave them in step order.
		plo, phi := span(k0, m, in.start, n)
		olo, ohi := span(k0, m, in.end, n)
		w, ev := &p.wins[in.state], in.op == opEventually
		for j := min(plo, olo); j < max(phi, ohi); j++ {
			if j >= plo && j < phi {
				w.push(truthy(x[j]), in.fresh && xu[j])
			}
			if j >= olo && j < ohi {
				dst[j], du[j] = w.future(k0+j-int(in.end), ev)
			}
		}
	case opDelay:
		l := &p.lines[in.state]
		o := max(k0, int(in.start)) - int(in.start) // operand step of the first slot written
		for j := o + int(in.start) - k0; j < m; j++ {
			slot := &l.slots[l.pos]
			dst[j] = slot.v
			if in.fresh {
				du[j] = slot.u
			}
			if o < n {
				*slot = reg{x[j], in.fresh && xu[j]}
			}
			o++
			if l.pos++; l.pos == len(l.slots) {
				l.pos = 0
			}
		}
	}
}

// span returns the block slots [lo, hi) at which a register of the
// given delay holds an input step's value: 0 <= k0+j-delay < n.
func span(k0, m int, delay int32, n int) (lo, hi int) {
	s := k0 - int(delay) // the input step slot 0 holds
	lo = min(max(-s, 0), m)
	hi = m
	if s+m > n {
		hi = max(n-s, lo)
	}
	return lo, hi
}

// naive advances a DeltaNaive history by one operand value and returns
// the previous step's value, NaN at the first.
func (h *histState) naive(x float64) float64 {
	prev := math.NaN()
	if h.started {
		prev = h.last
	}
	h.started, h.last = true, x
	return prev
}

// updateAware advances a DeltaUpdateAware history by one operand value
// and its freshness, and returns the value before the latest update.
func (h *histState) updateAware(x float64, fresh bool) float64 {
	if fresh {
		h.prevUpd, h.prevStep = h.curVal, h.curStep
		h.curVal, h.curStep = x, h.n
	}
	h.n++
	return h.prevUpd
}

// gap returns the time rate divides by: one period under DeltaNaive,
// and under DeltaUpdateAware the time between the latest two updates
// (one period until there are two).
func (h *histState) gap(mode DeltaMode, period float64) float64 {
	if mode == DeltaUpdateAware && h.prevStep >= 0 && h.curStep > h.prevStep {
		return float64(h.curStep-h.prevStep) * period
	}
	return period
}

// markFresh decides which instructions compute their freshness column.
// updated() reads its operand's freshness, and so do prev, delta, rate
// and changed under DeltaUpdateAware; an instruction whose freshness is
// read reads its operands' in turn. Decisions read values only. The
// code is topologically ordered, so one backward pass meets every
// reader of a register before its writer.
func (p *program) markFresh() {
	live := make([]bool, len(p.init))
	for i := len(p.code) - 1; i >= 0; i-- {
		in := &p.code[i]
		in.fresh = live[in.dst]
		reads := in.fresh || in.op == opUpdated ||
			(p.mode == DeltaUpdateAware && (in.op == opPrev || in.op == opDelta || in.op == opRate || in.op == opChanged))
		if !reads {
			continue
		}
		for _, r := range []int32{in.a, in.b, in.c}[:in.op.arity()] {
			live[r] = true
		}
	}
}

// push feeds one operand output to a future window.
func (w *window) push(t, fresh bool) {
	j := w.seen
	size := len(w.truth)
	if j >= size { // operand step j-size leaves through the slot j reuses
		if w.truth[w.pos] {
			w.count--
		}
		w.first = j - size + 1
	}
	w.truth[w.pos] = t
	if t {
		w.count++
	}
	w.fresh[w.fpos] = fresh
	w.seen++
	if w.pos++; w.pos == size {
		w.pos = 0
	}
	if w.fpos++; w.fpos == len(w.fresh) {
		w.fpos = 0
	}
}

// future returns the verdict for output step o, whose window is operand
// steps [o+lo, o+hi]; it is called for o = 0, 1, 2, ... in turn. Once
// the inputs are exhausted the window is truncated at the last operand
// step; an empty or witness-free truncated window is "no evidence",
// benign for both operators, as in the reference semantics.
func (w *window) future(o int, eventually bool) (float64, bool) {
	fresh := w.fresh[w.out]
	if w.out++; w.out == len(w.fresh) {
		w.out = 0
	}
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
	c.p.init = append(c.p.init, v)
	c.delay = append(c.delay, delay)
	return int32(len(c.p.init) - 1)
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
		p.lines = append(p.lines, line{slots: make([]reg, k.hi)})
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

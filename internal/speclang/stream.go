package speclang

import (
	"encoding/binary"
	"fmt"
	"math"
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
// A rule set compiles once per step period and delta mode into a
// Program: a flat, topologically ordered instruction slice, rule by
// rule, over a register file. A StreamChecker is one session's state
// over a Program: the register file and the memory of every stateful
// instruction. It runs the program a block of input steps at a time,
// one instruction over the whole block before the next, so opcode
// dispatch is paid per block, not per step; a single step is a one-step
// block.
//
// Every register has a kind fixed at compile time. A truth register
// (connectives, comparisons, temporal operators, ...) holds a block as
// one machine word, bit j for block slot j, so connectives are single
// word operations and a rule's decisions read whole words; a number
// register holds a column of float64 values. Every register's freshness
// is a word too. Input and constant registers are numbers that also
// carry a truth word, filled when the block's queued inputs run, so a
// boolean signal read by a connective costs no instruction; any other
// operand of the wrong kind goes through one shared conversion
// instruction (truthy, or 0/1). A rule's decisions read its root words
// whole: a block with no violated slot, no open violation and no
// warmup that can mask settles in a few word operations. Temporal
// windows, difference memories and state machines still step slot by
// slot, reading and setting bits.
//
// Every register carries a delay: the value its column holds for input
// step k belongs to step k-delay. A bounded eventually[lo:hi] can only
// decide step s once step s+hi has been seen, so its delay is hi steps
// plus its operand's. Delays are resolved at compile time: operands of
// equal delay combine in place, and only an operand whose delay is
// shorter than its sibling's is routed through a fixed-length delay
// line. Within a rule, inlined lets and repeated subexpressions compile
// to one instruction each; that sharing is exact because every
// instruction is a deterministic function of its operands' step
// sequences. Rules share only the input and constant registers, and
// each owns a contiguous range of the program, so per-rule timing stays
// exact. After the final input step, Finish keeps running each rule's
// range with exhausted inputs, draining it with the reference's
// truncated-window semantics.

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
	opDelay  // the operand, delayed by a fixed number of steps
	opTruthy // a number operand read as truth
	opNum    // a truth operand read as the number 0 or 1
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

// kind is what a register holds over a block: truth values, one bit per
// slot, or numbers, one float64 per slot.
type kind uint8

const (
	number kind = iota
	truth
)

// result returns the kind of register an instruction of this opcode
// writes. A delay line writes its operand's kind, recorded in the
// instruction.
func (op opcode) result() kind {
	switch op {
	case opNot, opAnd, opOr, opImplies, opLT, opLE, opGT, opGE, opEQ, opNE,
		opValid, opUpdated, opRise, opFall, opChanged,
		opAlways, opEventually, opOnce, opHistorically, opTruthy:
		return truth
	}
	return number
}

// operand returns the kind an instruction of this opcode reads as its
// i-th operand (updated reads only its signal's freshness).
func (op opcode) operand(i int) kind {
	switch op {
	case opNot, opAnd, opOr, opImplies, opRise, opFall,
		opAlways, opEventually, opOnce, opHistorically, opNum:
		return truth
	case opCond:
		if i == 0 {
			return truth
		}
	}
	return number
}

// blockSteps is the number of input steps one block executes: the
// length of every number column and the width of every truth and
// freshness word. Offline checks run full blocks; the online monitor
// runs one block per push call, however few steps that call finalized.
const blockSteps = 32

// column is one number register's values over a block, slot j holding
// input step k0+j.
type column [blockSteps]float64

// instr is one program instruction. It writes register dst from the
// operand registers a, b and c, which index a checker's truth and
// freshness words; stateful opcodes keep their state in the checker's
// per-kind slice at index state. A checker resolves the number
// registers' columns once, when it opens (see operands).
type instr struct {
	op   opcode
	kind kind // what dst holds: op.result(), or a delay line's operand kind
	// fresh is set when some reader consumes dst's freshness word (see
	// markFresh); otherwise only its value is computed.
	fresh   bool
	dst     int32
	a, b, c int32
	state   int32
	// start is the operands' delay: the first input step at which they
	// hold a value. end is dst's delay; only temporal lookahead and
	// delay lines make it exceed start.
	start, end int32
	// lo and hi are a temporal window's bounds in steps.
	lo, hi int32
}

// operands holds one instruction's number columns in a checker's
// register file: dst's and those of a, b and c, nil where the register
// is a truth register. The executor reads them here rather than
// indexing the register file per instruction: on a one-step block that
// indexing cost as much as the instruction's own work. Truth and
// freshness words are indexed by register.
type operands struct{ out, x, y, z *column }

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

// bit returns b as the low bit of a word.
func bit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// truths returns the truth of each value of x as a word: bit j is set
// when x[j] is neither zero nor NaN, which is when |x[j]| > 0. Bits
// past len(x) are zero.
func truths(x []float64) uint32 {
	var w uint32
	for j := len(x) - 1; j >= 0; j-- {
		w = w<<1 | bit(math.Abs(x[j]) > 0)
	}
	return w
}

// pack returns a word whose bit j is f[j] for j < m, for bytes that are
// 0 or 1; bits past m are unspecified.
func pack(f *[blockSteps]uint8, m int) uint32 {
	// Multiplying eight 0/1 bytes by spread gathers byte i's bit at
	// bit 56+i, with no carries into those eight bits. (k&24 is k; the
	// mask proves the eight bytes lie in f.)
	const spread = 0x0102040810204080
	var w uint32
	for k := 0; k < m; k += 8 {
		w |= uint32(binary.LittleEndian.Uint64(f[k&24:])*spread>>56) << k
	}
	return w
}

// compare returns the word of comparison op of x[j] and y[j] (valid:
// of x[j] alone, y unread) over the slots of x, one loop per opcode.
// Go's ordered comparisons and == are already false on NaN, the
// language's rule; only != needs the explicit test. It is a function
// of its own, not a case of execInline, so that the word it builds
// stays in a machine register.
//
//go:noinline
func compare(op opcode, x []float64, y *column) uint32 {
	var w uint32
	switch op {
	case opLT:
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(x[j] < y[j])
		}
	case opLE:
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(x[j] <= y[j])
		}
	case opGT:
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(x[j] > y[j])
		}
	case opGE:
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(x[j] >= y[j])
		}
	case opEQ:
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(x[j] == y[j])
		}
	case opNE:
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(x[j] != y[j] && x[j] == x[j] && y[j] == y[j])
		}
	default: // opValid
		for j := len(x) - 1; j >= 0; j-- {
			w = w<<1 | bit(!math.IsNaN(x[j]) && !math.IsInf(x[j], 0))
		}
	}
	return w
}

// at reports bit j of w.
func at(w uint32, j int) bool { return w>>(j&31)&1 != 0 }

// before returns the previous bit of each slot of a stream whose word
// x starts at slot lo: bit j is x's bit j-1, and bit lo is was, the
// stream's last bit before lo.
func before(x uint32, was bool, lo int) uint32 {
	return x<<1&^slots(lo, lo+1) | bit(was)<<(lo&31)
}

// slots returns the word with bits [lo, hi) set, none when hi <= lo.
func slots(lo, hi int) uint32 {
	if hi <= lo {
		return 0
	}
	return uint32(uint64(1)<<hi - uint64(1)<<lo)
}

// histState is the memory of prev/delta/rate/changed: the previous step
// under DeltaNaive, the previous update under DeltaUpdateAware.
type histState struct {
	// naive
	started bool
	last    float64
	// update-aware; n counts the operand steps fed
	prevUpd, curVal   float64
	prevStep, curStep int
	n                 int
}

// window is the state of one bounded temporal operator: the truthiness
// of its operand over a ring indexed by operand step, and how many
// operand steps in the current window are truthy. Its bounds are the
// instruction's. A future operator's verdict for step o is as fresh as
// its operand at step o, so, when read, its freshness is the operand's
// delayed by hi steps, through the bit ring fresh.
type window struct {
	truth []bool // future: hi-lo+1 slots; past: hi+1 slots
	count int
	first int // oldest operand step in the window (future operators)
	seen  int // operand steps consumed
	pos   int // future operators: the truth slot the next push writes
	fresh bitRing
}

// line is a delay line. A number line keeps its operand values in a
// ring indexed by operand step modulo its length, pos the slot the next
// operand step uses; a truth line keeps them in the bit ring bits.
// fresh delays the operand's freshness.
type line struct {
	vals        []float64
	pos         int
	bits, fresh bitRing
}

// bitRing delays a stream of bits by a fixed number of steps: a ring of
// words addressed by bit, at least delay+blockSteps bits long. So a
// block's bits can be written before the delayed ones are read, and
// written a whole word at a time: the bits past the block's land on
// positions the next blocks write before anything reads them.
type bitRing struct {
	words []uint32
	delay int
	pos   int // the bit the next operand step writes
}

// newBitRing returns a ring delaying bits by delay steps, its words cut
// from the front of *slab.
func newBitRing(delay int, slab *[]uint32) bitRing {
	n := ringWords(delay)
	words := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return bitRing{words: words, delay: delay}
}

// ringWords returns how many words a bit ring of the given delay holds.
func ringWords(delay int) int { return (delay+blockSteps-1)/blockSteps + 1 }

// shift feeds bits [lo, m) of x (lo < m <= blockSteps) as the next
// operand steps and returns, at those bits, the bits fed delay steps
// before each of them (zero before the first delay steps). Its other
// bits are unspecified.
func (r *bitRing) shift(x uint32, lo, m int) uint32 {
	size := len(r.words) * blockSteps
	r.put(r.pos, x>>lo)
	from := r.pos - r.delay
	if from < 0 {
		from += size
	}
	if r.pos += m - lo; r.pos >= size {
		r.pos -= size
	}
	return r.get(from) << lo
}

// put writes the bits of x at positions pos through pos+blockSteps-1.
func (r *bitRing) put(pos int, x uint32) {
	w, off := pos/blockSteps, pos%blockSteps
	next := w + 1
	if next == len(r.words) {
		next = 0
	}
	keep, val := uint64(math.MaxUint32)<<off, uint64(x)<<off
	r.words[w] = r.words[w]&^uint32(keep) | uint32(val)
	r.words[next] = r.words[next]&^uint32(keep>>32) | uint32(val>>32)
}

// get returns the ring's blockSteps bits from position pos on.
func (r *bitRing) get(pos int) uint32 {
	w, off := pos/blockSteps, pos%blockSteps
	next := w + 1
	if next == len(r.words) {
		next = 0
	}
	return uint32((uint64(r.words[w]) | uint64(r.words[next])<<32) >> off)
}

// exec runs the program's instructions code[lo:hi] over input steps k0
// through k0+m-1 (0 < m <= blockSteps), one instruction over the whole
// block at a time: one rule's range, for a block or the rule's drain.
// n is the number of input steps, or math.MaxInt while the trace is
// still open; at k >= n the inputs are exhausted and only the outputs
// still owed are produced: delay lines shift out and future windows
// emit truncated verdicts.
//
// A register of delay d holds step k-d in slot k-k0 whenever
// 0 <= k-d < n. Stateless instructions fill their whole column or word:
// outside that range, and in a word's bits past m, they write values no
// valid reader consumes, and every reader masks or skips them. Stateful
// ones advance only on valid operands.
func (sc *StreamChecker) exec(lo, hi, k0, m, n int) {
	for i := sc.execInline(lo, hi, k0, m, n); i < hi; i = sc.execInline(i+1, hi, k0, m, n) {
		sc.execRing(i, k0, m, n)
	}
}

// execInline runs instructions from code[i], short of code[hi], until
// the next one that keeps a ring buffer (a temporal window or a delay
// line), and returns that one's index (hi when none). The loop makes no
// call, so its state stays in machine registers.
func (sc *StreamChecker) execInline(i, hi, k0, m, n int) int {
	if m > blockSteps {
		panic("speclang: block exceeds blockSteps")
	}
	code, cols, t, u := sc.p.code[:hi], sc.cols[:hi], sc.t, sc.u
	for ; i < len(code); i++ {
		in, c := &code[i], &cols[i]
		switch in.op {
		case opNot:
			t[in.dst] = ^t[in.a]
		case opAnd:
			t[in.dst] = t[in.a] & t[in.b]
		case opOr:
			t[in.dst] = t[in.a] | t[in.b]
		case opImplies:
			t[in.dst] = ^t[in.a] | t[in.b]
		case opNeg:
			dst, x := c.out[:m], c.x
			for j := range dst {
				dst[j] = -x[j]
			}
		case opAdd:
			dst, x, y := c.out[:m], c.x, c.y
			for j := range dst {
				dst[j] = x[j] + y[j]
			}
		case opSub:
			dst, x, y := c.out[:m], c.x, c.y
			for j := range dst {
				dst[j] = x[j] - y[j]
			}
		case opMul:
			dst, x, y := c.out[:m], c.x, c.y
			for j := range dst {
				dst[j] = x[j] * y[j]
			}
		case opDiv:
			dst, x, y := c.out[:m], c.x, c.y
			for j := range dst {
				dst[j] = x[j] / y[j]
			}
		case opLT, opLE, opGT, opGE, opEQ, opNE, opValid:
			t[in.dst] = compare(in.op, c.x[:m], c.y)
		case opTruthy:
			t[in.dst] = truths(c.x[:m])
		case opNum:
			dst, x := c.out[:m], t[in.a]
			for j := range dst {
				dst[j] = float64(x >> (j & 31) & 1)
			}
		case opAbs:
			dst, x := c.out[:m], c.x
			for j := range dst {
				dst[j] = math.Abs(x[j])
			}
		case opMin:
			dst, x, y := c.out[:m], c.x, c.y
			for j := range dst {
				dst[j] = min(x[j], y[j])
			}
		case opMax:
			dst, x, y := c.out[:m], c.x, c.y
			for j := range dst {
				dst[j] = max(x[j], y[j])
			}
		case opCond:
			dst, x, y, z := c.out[:m], t[in.a], c.y, c.z
			for j := range dst {
				if at(x, j) {
					dst[j] = y[j]
				} else {
					dst[j] = z[j]
				}
			}
		case opUpdated:
			t[in.dst] = u[in.a]
		case opRise, opFall:
			lo, hi := span(k0, m, in.start, n)
			if lo < hi {
				was, x := &sc.edges[in.state], t[in.a]
				prev := before(x, *was, lo)
				if in.op == opRise {
					t[in.dst] = x &^ prev
				} else {
					t[in.dst] = prev &^ x
				}
				*was = at(x, hi-1)
			}
		case opPrev, opDelta, opRate, opChanged:
			lo, hi := span(k0, m, in.start, n)
			h, mode, x, xu := &sc.hists[in.state], sc.p.mode, c.x, u[in.a]
			var changed uint32
			for j := lo; j < hi; j++ {
				var prev float64
				if mode == DeltaNaive {
					prev = h.naive(x[j])
				} else {
					prev = h.updateAware(x[j], at(xu, j), h.n+j-lo)
				}
				switch in.op {
				case opPrev:
					c.out[j] = prev
				case opDelta:
					c.out[j] = x[j] - prev
				case opRate:
					c.out[j] = (x[j] - prev) / h.gap(mode, sc.p.secs)
				default: // opChanged
					d := x[j] - prev
					changed |= bit(!math.IsNaN(d) && d != 0) << (j & 31)
				}
			}
			h.n += hi - lo
			if in.op == opChanged {
				t[in.dst] = changed
			}
		default:
			return i
		}
		if !in.fresh {
			continue
		}
		// A value is fresh when any of its operands is.
		switch in.op.arity() {
		case 1:
			u[in.dst] = u[in.a]
		case 2:
			u[in.dst] = u[in.a] | u[in.b]
		default:
			u[in.dst] = u[in.a] | u[in.b] | u[in.c]
		}
	}
	return i
}

// execRing runs instruction code[i], a temporal window or delay line,
// over a block: it advances its state only at the slots whose operand
// step is valid, and writes dst where its output step is.
func (sc *StreamChecker) execRing(i, k0, m, n int) {
	in, t, u := &sc.p.code[i], sc.t, sc.u
	x, xu := t[in.a], u[in.a]
	switch in.op {
	case opOnce, opHistorically:
		lo, hi := span(k0, m, in.start, n)
		w, once := &sc.wins[in.state], in.op == opOnce
		var out uint32
		for j := lo; j < hi; j++ {
			out |= bit(w.past(at(x, j), int(in.lo), int(in.hi), once)) << (j & 31)
		}
		t[in.dst] = out
		if in.fresh {
			u[in.dst] = xu
		}
	case opAlways, opEventually:
		// The operand enters at its valid slots and verdicts leave at
		// dst's, end-start slots later; interleave them in step order.
		plo, phi := span(k0, m, in.start, n)
		olo, ohi := span(k0, m, in.end, n)
		w, ev := &sc.wins[in.state], in.op == opEventually
		var out uint32
		for j := min(plo, olo); j < max(phi, ohi); j++ {
			if j >= plo && j < phi {
				w.push(at(x, j))
			}
			if j >= olo && j < ohi {
				out |= bit(w.future(k0+j-int(in.end), int(in.lo), int(in.hi), ev)) << (j & 31)
			}
		}
		t[in.dst] = out
		if lo := min(max(int(in.start)-k0, 0), m); in.fresh && lo < m {
			u[in.dst] = w.fresh.shift(xu, lo, m)
		}
	case opDelay:
		// The line advances from the first slot whose operand step
		// exists; past the last input step it keeps shifting, writing
		// values no valid reader consumes.
		l := &sc.lines[in.state]
		lo := min(max(int(in.start)-k0, 0), m)
		if lo == m {
			return
		}
		if in.kind == truth {
			t[in.dst] = l.bits.shift(x, lo, m)
		} else {
			dst, src := sc.cols[i].out, sc.cols[i].x
			for j := lo; j < m; j++ {
				dst[j], l.vals[l.pos] = l.vals[l.pos], src[j]
				if l.pos++; l.pos == len(l.vals) {
					l.pos = 0
				}
			}
		}
		if in.fresh {
			u[in.dst] = l.fresh.shift(xu, lo, m)
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

// updateAware advances a DeltaUpdateAware history by operand step n,
// of the given value and freshness, and returns the value before the
// latest update. The caller advances n past the steps it fed.
func (h *histState) updateAware(x float64, fresh bool, n int) float64 {
	if fresh {
		h.prevUpd, h.prevStep = h.curVal, h.curStep
		h.curVal, h.curStep = x, n
	}
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

// markFresh decides which instructions compute their freshness word,
// and which inputs load theirs. updated() reads its operand's
// freshness, and so do prev, delta, rate and changed under
// DeltaUpdateAware; an instruction whose freshness is read reads its
// operands' in turn. Decisions read values only. The code is
// topologically ordered, so one backward pass meets every reader of a
// register before its writer.
func (p *Program) markFresh() {
	live := make([]bool, p.regs)
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
	for i := range p.inputs {
		p.inputs[i].fresh = live[p.inputs[i].reg]
	}
}

// push feeds one operand output to a future window.
func (w *window) push(t bool) {
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
	w.seen++
	if w.pos++; w.pos == size {
		w.pos = 0
	}
}

// future returns the verdict for output step o, whose window is
// operand steps [o+lo, o+hi]; it is called for o = 0, 1, 2, ... in
// turn. Once the inputs are exhausted the window is truncated at the
// last operand step; an empty or witness-free truncated window is "no
// evidence", benign for both operators, as in the reference semantics.
func (w *window) future(o, lo, hi int, eventually bool) bool {
	if o+hi < w.seen { // complete window
		if eventually {
			return w.count > 0
		}
		return w.count == len(w.truth)
	}
	for w.first < o+lo && w.first < w.seen {
		if w.truth[w.first%len(w.truth)] {
			w.count--
		}
		w.first++
	}
	return eventually || w.count == w.seen-w.first
}

// past feeds operand step t to a once/historically window and returns
// the verdict for step t over operand steps [t-hi, t-lo]. Past windows
// need no lookahead, so the operator adds no delay.
func (w *window) past(truth bool, lo, hi int, once bool) bool {
	t := w.seen
	w.seen++
	size := len(w.truth)
	slot := t % size
	if t > hi && w.truth[slot] { // step t-hi-1 leaves the window
		w.count--
	}
	w.truth[slot] = truth
	if t >= lo && w.truth[(t-lo)%size] { // step t-lo enters it
		w.count++
	}
	switch {
	case t < lo:
		return true // the window lies entirely before the trace
	case once:
		return w.count > 0 || t < hi // a witness, or a truncated window
	default:
		return w.count == t-lo-max(0, t-hi)+1
	}
}

// compiler lowers a rule set into a Program, rule by rule, sharing
// identical subexpressions within a rule and the input and constant
// registers across rules.
type compiler struct {
	p       *Program
	signals map[string]int // name -> index in the rule set's universe
	consts  map[string]float64
	lets    map[string]Expr

	regs      []regInfo          // per register
	shared    map[instrKey]int32 // the current rule's instructions
	inputs    map[int32]int32    // signal index -> input register
	constRegs map[uint64]int32   // by value bits
}

// regInfo is what the compiler knows of a register.
type regInfo struct {
	delay int
	kind  kind
	// An input or constant register is a number that also carries a
	// truth word (both); asTruth records that something reads it.
	both, asTruth bool
}

// instrKey identifies an instruction by what it computes: two
// instructions with equal keys produce equal step sequences. args holds
// operand registers (-1 when unused); kind is the result's.
type instrKey struct {
	op     opcode
	kind   kind
	args   [3]int32
	lo, hi int
}

// register allocates a register with the given delay and kind.
func (c *compiler) register(delay int, k kind) int32 {
	c.regs = append(c.regs, regInfo{delay: delay, kind: k})
	return int32(len(c.regs) - 1)
}

// constant returns a register preset to v; no instruction writes it.
func (c *compiler) constant(v float64) int32 {
	bits := math.Float64bits(v)
	if r, ok := c.constRegs[bits]; ok {
		return r
	}
	r := c.register(0, number)
	c.regs[r].both = true
	c.p.consts = append(c.p.consts, preset{reg: r, v: v})
	c.constRegs[bits] = r
	return r
}

// input returns the register of the input column signal src is read
// into, one per loaded signal.
func (c *compiler) input(src int32) int32 {
	if r, ok := c.inputs[src]; ok {
		return r
	}
	r := c.register(0, number)
	c.regs[r].both = true
	c.p.inputs = append(c.p.inputs, input{src: src, reg: r})
	c.inputs[src] = r
	return r
}

// as returns a register holding r's steps as kind k: r itself when it
// has that kind or is an input or constant, otherwise one shared
// conversion.
func (c *compiler) as(r int32, k kind) int32 {
	switch ri := &c.regs[r]; {
	case ri.kind == k:
		return r
	case ri.both:
		ri.asTruth = true
		return r
	case k == truth:
		return c.emit(instrKey{op: opTruthy, args: [3]int32{r, -1, -1}})
	default:
		return c.emit(instrKey{op: opNum, args: [3]int32{r, -1, -1}})
	}
}

// align delays register r, read as kind k, to the given delay through
// a delay line, unless it already has it.
func (c *compiler) align(r int32, delay int, k kind) int32 {
	if l := delay - c.regs[r].delay; l > 0 {
		return c.emit(instrKey{op: opDelay, kind: k, args: [3]int32{r, -1, -1}, hi: l})
	}
	return r
}

// emit returns the register holding k's result, appending the
// instruction unless an identical one exists. Operands are first read
// as the kinds the opcode takes, then operands of unequal delay are
// aligned through delay lines, so the instruction itself combines in
// place. The key is looked up before conversion and alignment: the same
// operands always convert and align the same way.
func (c *compiler) emit(k instrKey) int32 {
	if k.op != opDelay {
		k.kind = k.op.result()
	}
	if r, ok := c.shared[k]; ok {
		return r
	}
	p := c.p
	operands, start := k.args, 0
	for i, r := range operands {
		if r >= 0 {
			if k.op != opDelay {
				operands[i] = c.as(r, k.op.operand(i))
			}
			start = max(start, c.regs[operands[i]].delay)
		}
	}
	for i, r := range operands {
		if r >= 0 {
			want := k.kind // a delay line reads its own kind
			if k.op != opDelay {
				want = k.op.operand(i)
			}
			operands[i] = c.align(r, start, want)
		} else {
			operands[i] = 0 // unused; no case reads its column
		}
	}
	in := instr{op: k.op, kind: k.kind, a: operands[0], b: operands[1], c: operands[2], state: -1,
		start: int32(start), end: int32(start), lo: int32(k.lo), hi: int32(k.hi)}
	switch k.op {
	case opRise, opFall:
		in.state = int32(p.edges)
		p.edges++
	case opPrev, opDelta, opRate, opChanged:
		in.state = int32(p.hists)
		p.hists++
	case opAlways, opEventually:
		in.state = int32(len(p.wins))
		p.wins = append(p.wins, k.hi-k.lo+1)
		in.end += int32(k.hi)
	case opOnce, opHistorically:
		in.state = int32(len(p.wins))
		p.wins = append(p.wins, k.hi+1)
	case opDelay:
		in.state = int32(p.lines)
		p.lines++
		in.end += int32(k.hi)
	}
	in.dst = c.register(int(in.end), k.kind)
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
			return 0, errAt(line, col, "unknown identifier %q", x.Name)
		}
		return c.input(int32(idx)), nil
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
		k.op, k.lo, k.hi = op, int(x.Lo/c.p.period), int(x.Hi/c.p.period)
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

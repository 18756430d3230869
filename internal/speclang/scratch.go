package speclang

// Scratch recycles the per-step buffers the offline evaluator
// allocates: one float64 slab per expression node, plus the bool masks
// (freshness, warmup, activation) and the prefix-sum vectors of the
// temporal operators. The offline evaluator is the hot path of
// campaign-scale runs — replaying a fleet archive or regenerating the
// paper's Table I evaluates thousands of rule×trace pairs over the
// same step count — and without reuse every one of them pays a fresh
// set of slabs. A Scratch turns that into a bump allocator: slabs are
// handed out in order within one rule evaluation and all reclaimed at
// the start of the next.
//
// Lifetime contract: buffers obtained from a Scratch are valid only
// until the next rule evaluation that uses the same Scratch. Nothing
// in a RuleResult references scratch memory (violations carry scalars
// and message strings only), so results outlive the scratch freely.
//
// A Scratch is NOT safe for concurrent use. Concurrent evaluations —
// the monitor engine's parallel CheckGrid, the recheck shards — must
// use one Scratch per worker (a sync.Pool of them works well).
type Scratch struct {
	n          int // slab length the pools are sized for
	floats     [][]float64
	bools      [][]bool
	ints       [][]int
	nf, nb, ni int // slabs handed out since the last begin
}

// NewScratch returns an empty scratch. It sizes itself lazily to the
// first evaluation's step count and resizes whenever that changes.
func NewScratch() *Scratch { return &Scratch{} }

// begin readies the scratch for one rule evaluation over n steps:
// every slab handed out earlier is reclaimed, and pools sized for a
// different step count are dropped.
func (s *Scratch) begin(n int) {
	if s.n != n {
		s.floats, s.bools, s.ints = nil, nil, nil
		s.n = n
	}
	s.nf, s.nb, s.ni = 0, 0, 0
}

// grabFloats returns a zeroed slab of n float64s.
func (s *Scratch) grabFloats() []float64 {
	if s.nf < len(s.floats) {
		b := s.floats[s.nf]
		s.nf++
		clear(b)
		return b
	}
	b := make([]float64, s.n)
	s.floats = append(s.floats, b)
	s.nf++
	return b
}

// grabBools returns a zeroed slab of n bools.
func (s *Scratch) grabBools() []bool {
	if s.nb < len(s.bools) {
		b := s.bools[s.nb]
		s.nb++
		clear(b)
		return b
	}
	b := make([]bool, s.n)
	s.bools = append(s.bools, b)
	s.nb++
	return b
}

// grabInts returns a zeroed slab of n+1 ints (the temporal prefix sums
// need one extra element).
func (s *Scratch) grabInts() []int {
	if s.ni < len(s.ints) {
		b := s.ints[s.ni]
		s.ni++
		clear(b)
		return b
	}
	b := make([]int, s.n+1)
	s.ints = append(s.ints, b)
	s.ni++
	return b
}

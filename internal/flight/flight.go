// Package flight is the repository's low-overhead latency tracer: a
// sampled flight recorder for the frame→verdict pipeline. It holds a
// fixed-size lock-free ring of span records — one span per (pipeline
// stage, sampled batch) — plus an exemplar table retaining the slowest
// end-to-end traces seen, and a rolling-window latency SLO tracker.
//
// The design principle is the same as internal/obs: all cost is pushed
// off the hot path. The sampling decision is one atomic increment per
// batch; an unsampled batch pays nothing else. A sampled batch writes
// fixed-width span records into pre-allocated ring slots through plain
// atomics — no locks, no allocation, no string formatting. Strings
// (vehicle identities, rule names) are interned once, off the hot
// path, into small integer refs; the ring stores only the refs and a
// snapshot resolves them back.
//
// Ring slots are guarded by a per-slot version word (a seqlock with
// CAS-claimed write ownership): a writer that loses the claim race
// drops its span and counts it, and a reader discards any slot whose
// version moved while it was copying — so a snapshot can run
// concurrently with recording and never observes a torn span.
//
// Like obs, faultnet and sigdb, this package is a leaf: it imports
// nothing of cpsmon (pinned by arch_test), so every layer from the
// monitor engine to the fleet client can record into it without
// dependency cycles.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one hop of the frame→verdict pipeline.
type Stage uint8

const (
	// StageIngest is queue wait: a batch entering its session queue to
	// the worker dequeuing it.
	StageIngest Stage = iota
	// StageDecode is the rest of applying a batch besides rule
	// evaluation: frame lookup and decode into the latched signal
	// vector, step bookkeeping and event conversion.
	StageDecode
	// StageEval is rule evaluation: the blocks of grid steps a batch
	// finalized.
	StageEval
	// StageEmit is event serialization and the flush to the client.
	StageEmit
	// StageArchive is one archive pump write reaching the Archiver.
	StageArchive
	// StageLedger is one durable watermark sync: the archive barrier
	// plus the fsync'd ledger append. Fsync stalls surface here.
	StageLedger
	// StageDeliver is client-side delivery: a batch leaving the client
	// to the server's cumulative ack covering it.
	StageDeliver
	numStages
)

// NumStages is the number of distinct pipeline stages.
const NumStages = int(numStages)

var stageNames = [numStages]string{
	StageIngest:  "ingest",
	StageDecode:  "decode",
	StageEval:    "eval",
	StageEmit:    "emit",
	StageArchive: "archive",
	StageLedger:  "ledger",
	StageDeliver: "deliver",
}

// String names the stage as it appears in snapshots and admin output.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Ref is an interned string handle (a vehicle identity or a rule
// name). The zero Ref resolves to the empty string.
type Ref uint32

// Span is one recorded stage timing, as resolved by Snapshot.
type Span struct {
	// Session and Vehicle identify the monitored session.
	Session uint64 `json:"session"`
	Vehicle string `json:"vehicle"`
	// Stage is the pipeline hop this span times.
	Stage string `json:"stage"`
	// Rule is set on per-rule eval spans, empty otherwise.
	Rule string `json:"rule,omitempty"`
	// Seq is the batch sequence the span belongs to (0 for spans not
	// tied to a batch).
	Seq uint64 `json:"seq"`
	// Start is the span's wall-clock start in Unix nanoseconds.
	Start int64 `json:"start_unix_nano"`
	// Dur is the span's duration in nanoseconds.
	Dur int64 `json:"dur_nanos"`
}

// slot is one ring cell. ver is even and monotonically increasing when
// the cell is stable; a writer claims the cell by CASing ver to odd,
// stores the fields, then publishes with ver+2. Every field is atomic,
// so concurrent readers and a losing writer race cleanly (the reader's
// version re-check discards any mix it might have copied).
type slot struct {
	ver     atomic.Uint64
	session atomic.Uint64
	seq     atomic.Uint64
	start   atomic.Int64
	dur     atomic.Int64
	vehicle atomic.Uint32
	rule    atomic.Uint32
	stage   atomic.Uint32
}

// Config sizes a Recorder. The zero value selects the defaults.
type Config struct {
	// RingSize is the span ring capacity, rounded up to a power of
	// two. Default 4096 (~256KiB of slots).
	RingSize int
	// SampleEvery records every Nth batch; 1 records every batch.
	// Default 64.
	SampleEvery int
	// Exemplars is how many slowest end-to-end traces are retained.
	// Default 8.
	Exemplars int
}

// Recorder is the flight recorder. All methods are safe for concurrent
// use; Record and Sample are lock-free and allocation-free. A nil
// *Recorder is a valid "recording off" recorder: Sample reports false
// and Record is a no-op, so call sites need no nil checks of their own.
type Recorder struct {
	slots []slot
	mask  uint64
	pos   atomic.Uint64 // next slot to claim
	tick  atomic.Uint64 // sampling counter
	every uint64

	recorded atomic.Uint64 // spans successfully published
	dropped  atomic.Uint64 // spans lost to a slot-claim race
	sampled  atomic.Uint64 // batches that won the sampling decision

	// intern is the Ref table; interning takes the lock, resolving a
	// snapshot copies the table once. Refs are handed out off the hot
	// path (session attach, spec compile).
	internMu sync.Mutex
	interned []string
	internIx map[string]Ref

	ex exemplars
}

// New builds a Recorder with the given configuration.
func New(cfg Config) *Recorder {
	size := cfg.RingSize
	if size <= 0 {
		size = 4096
	}
	// Round up to a power of two so the ring index is a mask.
	n := 1
	for n < size {
		n <<= 1
	}
	every := cfg.SampleEvery
	if every <= 0 {
		every = 64
	}
	keep := cfg.Exemplars
	if keep <= 0 {
		keep = 8
	}
	r := &Recorder{
		slots:    make([]slot, n),
		mask:     uint64(n - 1),
		every:    uint64(every),
		interned: []string{""},
		internIx: map[string]Ref{"": 0},
	}
	r.ex.keep = keep
	return r
}

// SampleEvery returns the configured sampling period (1 = every batch).
func (r *Recorder) SampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.every)
}

// Intern returns the Ref for s, interning it on first use. It takes a
// lock — call it at session setup or spec compile, never per batch.
func (r *Recorder) Intern(s string) Ref {
	if r == nil {
		return 0
	}
	r.internMu.Lock()
	defer r.internMu.Unlock()
	if ref, ok := r.internIx[s]; ok {
		return ref
	}
	ref := Ref(len(r.interned))
	r.interned = append(r.interned, s)
	r.internIx[s] = ref
	return ref
}

// resolve returns the interned string for ref.
func (r *Recorder) resolve(table []string, ref uint32) string {
	if int(ref) < len(table) {
		return table[ref]
	}
	return ""
}

// Sample is the per-batch sampling decision: one atomic increment, true
// every SampleEvery-th call. A nil recorder never samples.
func (r *Recorder) Sample() bool {
	if r == nil {
		return false
	}
	if r.tick.Add(1)%r.every != 0 {
		return false
	}
	r.sampled.Add(1)
	return true
}

// Record publishes one span into the ring. It is lock-free and
// allocation-free: a writer that loses the (rare, ring-wrap) claim
// race for its slot drops the span and counts it instead of spinning.
// rule is 0 for spans not attributed to a single rule.
func (r *Recorder) Record(session uint64, vehicle Ref, stage Stage, rule Ref, seq uint64, start time.Time, dur time.Duration) {
	if r == nil {
		return
	}
	s := &r.slots[(r.pos.Add(1)-1)&r.mask]
	v := s.ver.Load()
	if v&1 != 0 || !s.ver.CompareAndSwap(v, v+1) {
		r.dropped.Add(1)
		return
	}
	s.session.Store(session)
	s.seq.Store(seq)
	s.start.Store(start.UnixNano())
	s.dur.Store(int64(dur))
	s.vehicle.Store(uint32(vehicle))
	s.rule.Store(uint32(rule))
	s.stage.Store(uint32(stage))
	s.ver.Store(v + 2)
	r.recorded.Add(1)
}

// Stats reports the recorder's own accounting: spans published, spans
// lost to slot-claim races, and batches that won the sampling decision.
func (r *Recorder) Stats() (recorded, dropped, sampled uint64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.recorded.Load(), r.dropped.Load(), r.sampled.Load()
}

// Snapshot is a point-in-time dump of the recorder: the decoded ring
// (valid spans only, oldest first best-effort) plus the slowest
// end-to-end exemplar traces. It is what /debug/flight serves.
type Snapshot struct {
	// RingSize and SampleEvery echo the configuration.
	RingSize    int `json:"ring_size"`
	SampleEvery int `json:"sample_every"`
	// Recorded, Dropped and Sampled are the Stats() counters.
	Recorded uint64 `json:"spans_recorded"`
	Dropped  uint64 `json:"spans_dropped"`
	Sampled  uint64 `json:"batches_sampled"`
	// Spans is the ring contents: every stable slot, in ring order
	// starting at the oldest surviving span.
	Spans []Span `json:"spans"`
	// Slowest is the exemplar table: the slowest end-to-end
	// frame→verdict traces retained, slowest first.
	Slowest []Trace `json:"slowest"`
}

// Snapshot captures the ring and exemplar table. It runs concurrently
// with recording: slots mid-write (or rewritten during the copy) are
// skipped, never emitted torn. A nil recorder yields a zero snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.internMu.Lock()
	table := r.interned[:len(r.interned):len(r.interned)]
	r.internMu.Unlock()

	snap := Snapshot{
		RingSize:    len(r.slots),
		SampleEvery: int(r.every),
		Recorded:    r.recorded.Load(),
		Dropped:     r.dropped.Load(),
		Sampled:     r.sampled.Load(),
		Spans:       make([]Span, 0, len(r.slots)),
	}
	// pos is where the next write lands, so ring order starting there
	// walks oldest → newest.
	head := r.pos.Load()
	for i := uint64(0); i < uint64(len(r.slots)); i++ {
		s := &r.slots[(head+i)&r.mask]
		v1 := s.ver.Load()
		if v1 == 0 || v1&1 != 0 {
			continue // never written, or mid-write
		}
		sp := Span{
			Session: s.session.Load(),
			Seq:     s.seq.Load(),
			Start:   s.start.Load(),
			Dur:     s.dur.Load(),
		}
		vehicle := s.vehicle.Load()
		rule := s.rule.Load()
		stage := s.stage.Load()
		if s.ver.Load() != v1 {
			continue // rewritten under us; drop the mix
		}
		sp.Vehicle = r.resolve(table, vehicle)
		sp.Rule = r.resolve(table, rule)
		sp.Stage = Stage(stage).String()
		snap.Spans = append(snap.Spans, sp)
	}
	snap.Slowest = r.ex.snapshot(r, table)
	return snap
}

// Trace is one end-to-end exemplar: a sampled batch's full
// frame→verdict latency with its per-stage breakdown.
type Trace struct {
	Session uint64 `json:"session"`
	Vehicle string `json:"vehicle"`
	Seq     uint64 `json:"seq"`
	// Start is the batch's enqueue instant in Unix nanoseconds.
	Start int64 `json:"start_unix_nano"`
	// E2E is the end-to-end latency in nanoseconds: enqueue to the
	// events of the batch flushed toward the client.
	E2E int64 `json:"e2e_nanos"`
	// Stages breaks E2E down by pipeline stage, nanoseconds each.
	Stages map[string]int64 `json:"stages"`
}

// exemplar is the internal (ref-compressed) form of a Trace.
type exemplar struct {
	session uint64
	vehicle Ref
	seq     uint64
	start   int64
	e2e     int64
	stages  [numStages]int64
}

// exemplars retains the keep slowest end-to-end traces under a mutex.
// Only sampled batches reach it — a handful of operations per second —
// so a lock is the simplest correct structure.
type exemplars struct {
	mu   sync.Mutex
	keep int
	// slow is kept sorted descending by e2e; the last element is the
	// cheapest to evict.
	slow []exemplar
}

// Exemplar offers one completed end-to-end measurement to the slowest
// table. stages holds per-stage nanoseconds indexed by Stage.
func (r *Recorder) Exemplar(session uint64, vehicle Ref, seq uint64, start time.Time, e2e time.Duration, stages [NumStages]int64) {
	if r == nil {
		return
	}
	e := exemplar{
		session: session,
		vehicle: vehicle,
		seq:     seq,
		start:   start.UnixNano(),
		e2e:     int64(e2e),
		stages:  stages,
	}
	x := &r.ex
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.slow) >= x.keep {
		if e.e2e <= x.slow[len(x.slow)-1].e2e {
			return // faster than everything retained
		}
		x.slow = x.slow[:len(x.slow)-1]
	}
	i := sort.Search(len(x.slow), func(i int) bool { return x.slow[i].e2e < e.e2e })
	x.slow = append(x.slow, exemplar{})
	copy(x.slow[i+1:], x.slow[i:])
	x.slow[i] = e
}

// snapshot resolves the exemplar table into Traces, slowest first.
func (x *exemplars) snapshot(r *Recorder, table []string) []Trace {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]Trace, 0, len(x.slow))
	for _, e := range x.slow {
		t := Trace{
			Session: e.session,
			Vehicle: r.resolve(table, uint32(e.vehicle)),
			Seq:     e.seq,
			Start:   e.start,
			E2E:     e.e2e,
			Stages:  make(map[string]int64, numStages),
		}
		for s := Stage(0); s < numStages; s++ {
			if e.stages[s] != 0 {
				t.Stages[s.String()] = e.stages[s]
			}
		}
		out = append(out, t)
	}
	return out
}

// Package recheck replays archived fleet traffic through a freshly
// compiled spec set and diffs the resulting verdicts against the
// archived ones.
//
// The archive records exactly the frame runs that reached each
// session's monitor (post stale-filter), so replaying them through a
// monitor compiled from the same spec reproduces the archived verdict
// rule for rule — any divergence means the spec, the triage
// thresholds, or the monitor implementation changed. Running a
// tightened spec over the same traffic turns the archive into a
// regression corpus: the report lists, per rule, which sessions got
// worse (regressions) and which got better (fixes).
//
// Only the rule fields of a verdict are compared. Ingest counters
// (frames dropped, rejected) describe the original transport and are
// not reproducible from the archive.
//
// Recheck is an offline batch job, so it parallelizes freely: one
// reader walks the archive in order and routes each record to a worker
// pool sharded by session (Options.Workers). The sharding is
// deterministic — every session is wholly owned by one worker and its
// records arrive in archive order, and the final report is assembled
// in sorted session order — so the report is identical at any worker
// count, byte for byte.
package recheck

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// Options narrows which archived sessions are rechecked and sizes the
// replay worker pool.
type Options struct {
	// From and To bound the capture-time window, as archive.Query.
	From, To time.Duration
	// Vehicle, when non-empty, selects one vehicle.
	Vehicle string
	// Session, when nonzero, selects one session.
	Session uint64
	// Workers bounds how many session shards replay concurrently:
	// 0 means GOMAXPROCS, 1 forces the sequential engine. The report
	// is identical at any value.
	Workers int
}

// RuleDiff is one rule whose rechecked verdict differs from the
// archived one.
type RuleDiff struct {
	Rule string
	// Archived and Rechecked hold the two sides. A rule absent from
	// one side (the spec added or removed it) leaves that side zero
	// with Violated false.
	Archived  wire.RuleVerdict
	Rechecked wire.RuleVerdict
	// Regression reports the rechecked side is worse: newly violated,
	// or more violations, or more real violations. The opposite is a
	// fix.
	Regression bool
}

// SessionReport is one archived session's recheck outcome.
type SessionReport struct {
	Session uint64
	Vehicle string
	// Frames counts frames replayed into the monitor; Rejected counts
	// frames the monitor refused (archived runs are post-filter, so
	// this stays zero unless the archive was assembled out of order).
	Frames   uint64
	Rejected uint64
	// Archived is the verdict found in the archive, nil when the
	// session has none in the queried range (still streaming when
	// archived, or excluded by the window).
	Archived *wire.Verdict
	// Rechecked is the verdict the replay produced.
	Rechecked wire.Verdict
	// Diffs lists rules whose outcome changed; empty means the
	// session's verdicts agree.
	Diffs []RuleDiff
}

// Divergent reports whether this session's rechecked verdict differs
// from its archived one. A session with no archived verdict is not
// divergent — there is nothing to diverge from.
func (sr *SessionReport) Divergent() bool {
	return sr.Archived != nil && len(sr.Diffs) > 0
}

// Report is the outcome of one recheck run.
type Report struct {
	// Sessions holds one entry per replayed session, in session order.
	Sessions []SessionReport
	// Checked counts sessions with an archived verdict to compare
	// against; Divergent counts those whose verdicts differ.
	Checked   int
	Divergent int
	// Regressions and Fixes count rule-level diffs across all
	// sessions by direction.
	Regressions int
	Fixes       int
	// FramesReplayed counts frames fed to monitors across sessions.
	FramesReplayed uint64
}

// replay accumulates one session's recheck state during the archive
// pass.
type replay struct {
	vehicle  string
	om       *core.OnlineMonitor
	tally    map[string]*tally
	frames   uint64
	rejected uint64
	archived *wire.Verdict
}

// tally mirrors the fleet session's per-rule verdict accounting.
type tally struct {
	violations, real, transient, negligible uint32
}

// Run replays the selected archive range through a monitor compiled
// from cfg and reports per-session, per-rule agreement with the
// archived verdicts. The archive is read in one pass; interleaved
// sessions each get their own monitor instance over the shared
// compiled spec. With Options.Workers above one, sessions are sharded
// onto that many replay workers (session number modulo worker count)
// fed by one sequential archive reader; any error — a worker-side replay
// failure or an iterator decode failure — surfaces as the one error
// Run returns, never a hang.
func Run(cat *archive.Catalog, db *sigdb.DB, cfg core.Config, opt Options) (*Report, error) {
	start := time.Now()
	if opt.Workers < 0 {
		return nil, fmt.Errorf("recheck: negative worker count %d", opt.Workers)
	}
	mon, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	var ruleOrder []string
	for _, r := range cfg.Rules.Rules() {
		ruleOrder = append(ruleOrder, r.Name)
	}
	workers := opt.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	q := archive.Query{
		From: opt.From, To: opt.To,
		Vehicle: opt.Vehicle, Session: opt.Session,
		Kinds: archive.KindFrames | archive.KindVerdict,
	}

	var sessions map[uint64]*replay
	var busy []time.Duration
	if workers <= 1 {
		sessions, err = runSequential(cat, db, mon, q)
	} else {
		sessions, busy, err = runSharded(cat, db, mon, q, workers)
	}
	if err != nil {
		return nil, err
	}
	rep, err := finalize(sessions, ruleOrder)
	if err != nil {
		return nil, err
	}
	observeRun(rep, workers, busy, time.Since(start))
	return rep, nil
}

// runSequential is the single-threaded replay and the reference the
// sharded engine is tested against: one shard driven inline over the
// sequential iterator, with no goroutine and no batches.
func runSequential(cat *archive.Catalog, db *sigdb.DB, mon *core.Monitor, q archive.Query) (map[uint64]*replay, error) {
	sh := newShard(mon, db)
	it := cat.Iter(q)
	defer it.Close()
	for it.Next() {
		countRecord()
		if err := sh.apply(it.Record()); err != nil {
			return nil, err
		}
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return sh.sessions, nil
}

// shardBatch is how many records the reader accumulates per shard
// before handing them to the worker — large enough to amortize the
// channel transfer, small enough to keep every shard busy on
// interleaved archives.
const shardBatch = 64

// batch is the unit of reader-to-shard transfer: record copies with
// their frames moved into a batch-owned arena, since the iterator's
// frame buffer is scratch that must not cross a goroutine boundary by
// reference.
type batch struct {
	recs   []archive.Record
	frames []can.Frame
}

// shard is one replay's private session state. Sharded workers are
// assigned sessions by session number modulo worker count, so their
// maps are disjoint and the merge after the join is a plain union.
type shard struct {
	mon      *core.Monitor
	db       *sigdb.DB
	sessions map[uint64]*replay
	err      error
	busy     time.Duration
}

func newShard(mon *core.Monitor, db *sigdb.DB) *shard {
	return &shard{mon: mon, db: db, sessions: make(map[uint64]*replay)}
}

// apply folds one record into its session's replay, creating the
// session's monitor on first sight.
func (s *shard) apply(rec *archive.Record) error {
	r := s.sessions[rec.Session]
	if r == nil {
		om, err := s.mon.Online(s.db)
		if err != nil {
			return err
		}
		r = &replay{vehicle: rec.Vehicle, om: om, tally: make(map[string]*tally)}
		s.sessions[rec.Session] = r
	}
	return r.apply(rec)
}

// process replays one batch.
func (s *shard) process(b *batch) error {
	for i := range b.recs {
		if err := s.apply(&b.recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// apply folds one archived record into the session's replay state.
func (r *replay) apply(rec *archive.Record) error {
	switch rec.Kind {
	case archive.KindFrames:
		evs, rejected, err := r.om.PushFrames(rec.Frames)
		if err != nil {
			return fmt.Errorf("recheck: session %d: %w", rec.Session, err)
		}
		r.rejected += uint64(rejected)
		r.frames += uint64(len(rec.Frames) - rejected)
		r.account(evs)
	case archive.KindVerdict:
		v := rec.Verdict
		r.archived = &v
	}
	return nil
}

// runSharded fans the archive pass over a worker pool: a reader walks
// the sequential iterator and routes each record to its session's
// shard. A failing shard raises a flag the reader polls, so the scan
// is closed mid-iteration instead of replaying to the end; the workers
// drain their channels without processing, and the first error (in
// shard order, then the iterator's) is returned.
func runSharded(cat *archive.Catalog, db *sigdb.DB, mon *core.Monitor, q archive.Query, workers int) (map[uint64]*replay, []time.Duration, error) {
	it := cat.Iter(q)
	defer it.Close()

	var pool sync.Pool
	pool.New = func() any { return new(batch) }
	chans := make([]chan *batch, workers)
	shards := make([]*shard, workers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		chans[w] = make(chan *batch, 4)
		sh := newShard(mon, db)
		shards[w] = sh
		wg.Add(1)
		go func(ch <-chan *batch) {
			defer wg.Done()
			for b := range ch {
				if sh.err == nil {
					t0 := time.Now()
					if err := sh.process(b); err != nil {
						sh.err = err
						failed.Store(true)
					}
					sh.busy += time.Since(t0)
				}
				b.recs, b.frames = b.recs[:0], b.frames[:0]
				pool.Put(b)
			}
		}(chans[w])
	}

	cur := make([]*batch, workers)
	flush := func(w int) {
		if cur[w] != nil && len(cur[w].recs) > 0 {
			chans[w] <- cur[w]
			cur[w] = nil
		}
	}
	records := uint64(0)
	for it.Next() {
		if failed.Load() {
			break // a shard already failed: stop scanning early
		}
		rec := *it.Record()
		records++
		w := int(rec.Session % uint64(workers))
		b := cur[w]
		if b == nil {
			b = pool.Get().(*batch)
			cur[w] = b
		}
		if len(rec.Frames) > 0 {
			// Copy into the batch arena; records sliced from it stay
			// valid across later appends (old backing arrays persist).
			at := len(b.frames)
			b.frames = append(b.frames, rec.Frames...)
			rec.Frames = b.frames[at:len(b.frames):len(b.frames)]
		}
		b.recs = append(b.recs, rec)
		if len(b.recs) >= shardBatch {
			flush(w)
		}
	}
	readErr := it.Err()
	it.Close()
	for w := range chans {
		flush(w)
		close(chans[w])
	}
	wg.Wait()
	countRecords(records)

	busy := make([]time.Duration, workers)
	for w, sh := range shards {
		busy[w] = sh.busy
		if sh.err != nil {
			return nil, nil, sh.err
		}
	}
	if readErr != nil {
		return nil, nil, readErr
	}
	merged := make(map[uint64]*replay)
	for _, sh := range shards {
		for id, r := range sh.sessions {
			merged[id] = r
		}
	}
	return merged, busy, nil
}

// finalize closes every session's monitor and assembles the report in
// sorted session order — the step that makes the output independent of
// how the replay was scheduled.
func finalize(sessions map[uint64]*replay, ruleOrder []string) (*Report, error) {
	rep := &Report{}
	ids := make([]uint64, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		r := sessions[id]
		evs, err := r.om.Close()
		if err != nil {
			return nil, fmt.Errorf("recheck: session %d: %w", id, err)
		}
		r.account(evs)
		sr := SessionReport{
			Session:  id,
			Vehicle:  r.vehicle,
			Frames:   r.frames,
			Rejected: r.rejected,
			Archived: r.archived,
			Rechecked: wire.Verdict{
				FramesIngested: r.frames,
				FramesRejected: r.rejected,
			},
		}
		for _, name := range ruleOrder {
			rv := wire.RuleVerdict{Rule: name}
			if t := r.tally[name]; t != nil {
				rv.Violated = t.violations > 0
				rv.Violations = t.violations
				rv.Real = t.real
				rv.Transient = t.transient
				rv.Negligible = t.negligible
			}
			sr.Rechecked.Rules = append(sr.Rechecked.Rules, rv)
		}
		if r.archived != nil {
			sr.Diffs = diffRules(r.archived.Rules, sr.Rechecked.Rules)
			rep.Checked++
			if len(sr.Diffs) > 0 {
				rep.Divergent++
			}
			for _, d := range sr.Diffs {
				if d.Regression {
					rep.Regressions++
				} else {
					rep.Fixes++
				}
			}
		}
		rep.FramesReplayed += r.frames
		rep.Sessions = append(rep.Sessions, sr)
	}
	return rep, nil
}

// account folds monitor events into the per-rule tally, exactly as the
// fleet session does when building its verdict.
func (r *replay) account(evs []core.OnlineEvent) {
	for _, e := range evs {
		if e.Kind != speclang.ViolationEnd {
			continue
		}
		t := r.tally[e.Rule]
		if t == nil {
			t = &tally{}
			r.tally[e.Rule] = t
		}
		t.violations++
		switch e.Class {
		case core.ClassReal:
			t.real++
		case core.ClassTransient:
			t.transient++
		case core.ClassNegligible:
			t.negligible++
		}
	}
}

// diffRules compares the rule lists of two verdicts by rule name,
// returning one RuleDiff per rule whose counted fields differ. Rules
// present on only one side (the spec changed shape) always diff.
func diffRules(archived, rechecked []wire.RuleVerdict) []RuleDiff {
	byName := make(map[string]wire.RuleVerdict, len(archived))
	for _, rv := range archived {
		byName[rv.Rule] = rv
	}
	var diffs []RuleDiff
	seen := make(map[string]bool, len(rechecked))
	for _, now := range rechecked {
		seen[now.Rule] = true
		was := byName[now.Rule] // zero value when the rule is new
		if sameRule(was, now) {
			continue
		}
		diffs = append(diffs, RuleDiff{
			Rule: now.Rule, Archived: was, Rechecked: now,
			Regression: worse(was, now),
		})
	}
	for _, was := range archived {
		if seen[was.Rule] {
			continue
		}
		// Rule dropped from the spec: only report it if it had found
		// anything — losing a clean rule changes nothing.
		if was.Violations == 0 && !was.Violated {
			continue
		}
		diffs = append(diffs, RuleDiff{
			Rule: was.Rule, Archived: was,
			Rechecked:  wire.RuleVerdict{Rule: was.Rule},
			Regression: false,
		})
	}
	return diffs
}

// sameRule compares the counted fields of two rule verdicts.
func sameRule(a, b wire.RuleVerdict) bool {
	return a.Violated == b.Violated &&
		a.Violations == b.Violations &&
		a.Real == b.Real &&
		a.Transient == b.Transient &&
		a.Negligible == b.Negligible
}

// worse reports whether now is a regression relative to was.
func worse(was, now wire.RuleVerdict) bool {
	if now.Violated != was.Violated {
		return now.Violated
	}
	if now.Violations != was.Violations {
		return now.Violations > was.Violations
	}
	return now.Real > was.Real
}

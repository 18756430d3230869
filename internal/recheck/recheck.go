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
// Recheck is an offline batch job, so it parallelizes freely: each of
// Options.Workers shards reads the archive through its own iterator,
// filtered to the sessions it owns (session number modulo worker
// count), and replays those records in place. The sharding is
// deterministic — every session is wholly owned by one shard and its
// records arrive in archive order, and the final report is assembled
// in sorted session order — so the report is identical at any worker
// count, byte for byte, and so is the error of a failed run.
package recheck

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cpsmon/internal/archive"
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
// archived verdicts. Interleaved sessions each get their own monitor
// instance over the shared compiled spec. With Options.Workers above
// one, sessions are sharded onto that many replay workers (session
// number modulo worker count), each reading the archive on its own.
// Any error — a replay failure or an archive decode failure — ends the
// run, never a hang, and the error returned is the one the sequential
// engine returns: the earliest in archive order.
func Run(cat *archive.Catalog, db *sigdb.DB, cfg core.Config, opt Options) (*Report, error) {
	mon, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return run(cat, db, mon, opt)
}

// run is Run over a built monitor, whose one compiled program every
// shard's sessions share.
func run(cat *archive.Catalog, db *sigdb.DB, mon *core.Monitor, opt Options) (*Report, error) {
	start := time.Now()
	if opt.Workers < 0 {
		return nil, fmt.Errorf("recheck: negative worker count %d", opt.Workers)
	}
	ruleOrder := mon.RuleNames()
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
	var err error
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
// sharded engine is tested against: one shard over the unfiltered
// query, driven inline.
func runSequential(cat *archive.Catalog, db *sigdb.DB, mon *core.Monitor, q archive.Query) (map[uint64]*replay, error) {
	sh := newShard(mon, db)
	sh.replayAll(cat.Iter(q), nil)
	countRecords(sh.records)
	return sh.sessions, sh.err
}

// shard is one replay's private session state. Sharded workers are
// assigned sessions by session number modulo worker count, so their
// maps are disjoint and the merge after the join is a plain union.
type shard struct {
	mon      *core.Monitor
	db       *sigdb.DB
	sessions map[uint64]*replay
	records  uint64
	// err is the shard's first failure and errSeq its archive
	// position: the sequence number of the record it arose at.
	err    error
	errSeq uint64
}

func newShard(mon *core.Monitor, db *sigdb.DB) *shard {
	return &shard{mon: mon, db: db, sessions: make(map[uint64]*replay)}
}

// replayAll drives the shard over its iterator until the iterator ends
// or fails, the shard fails, or — when stop is non-nil — the iterator
// is past the archive position in stop, the earliest failure any shard
// has recorded so far. Records before that position still replay, so
// a shard never stops short of an earlier failure of its own. Records
// are applied in place: their frames are the iterator's scratch, done
// with before the next Next.
func (s *shard) replayAll(it *archive.Iterator, stop *atomic.Uint64) {
	defer it.Close()
	for it.Next() {
		rec := it.Record()
		if stop != nil && rec.Seq > stop.Load() {
			return
		}
		s.records++
		if err := s.apply(rec); err != nil {
			s.fail(rec.Seq, err, stop)
			return
		}
	}
	if err := it.Err(); err != nil {
		s.fail(it.Pos(), err, stop)
	}
}

// fail records the shard's failure at archive position seq and lowers
// stop to it unless another shard already failed earlier.
func (s *shard) fail(seq uint64, err error, stop *atomic.Uint64) {
	s.err, s.errSeq = err, seq
	for stop != nil {
		cur := stop.Load()
		if seq >= cur || stop.CompareAndSwap(cur, seq) {
			return
		}
	}
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

// runSharded replays the archive on one goroutine per shard. Each
// shard reads the archive itself through its own iterator, filtered to
// the sessions it owns, so records are decoded in parallel and never
// copied between goroutines. The error returned is the one the
// sequential engine returns — the earliest in archive order — whichever
// shard reached its failure first.
func runSharded(cat *archive.Catalog, db *sigdb.DB, mon *core.Monitor, q archive.Query, workers int) (map[uint64]*replay, []time.Duration, error) {
	shards := make([]*shard, workers)
	busy := make([]time.Duration, workers)
	var stop atomic.Uint64
	stop.Store(math.MaxUint64)
	var wg sync.WaitGroup
	for w := range shards {
		sh := newShard(mon, db)
		shards[w] = sh
		sq := q
		sq.Shard, sq.Shards = uint64(w), uint64(workers)
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			sh.replayAll(cat.Iter(sq), &stop)
			busy[w] = time.Since(t0)
		}()
	}
	wg.Wait()

	var records uint64
	var failed *shard
	merged := make(map[uint64]*replay)
	for _, sh := range shards {
		records += sh.records
		if sh.err != nil && (failed == nil || sh.errSeq < failed.errSeq) {
			failed = sh
		}
		maps.Copy(merged, sh.sessions)
	}
	countRecords(records)
	if failed != nil {
		return nil, nil, failed.err
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

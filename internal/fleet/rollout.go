package fleet

// Live spec rollout: the server can carry one candidate spec at a time
// through shadow evaluation to an atomic promote (or an abort), without
// restarting and without touching the shadow-off hot path.
//
// The mechanism is a generation counter plus an atomic pointer to an
// immutable rolloutState. Session workers keep a worker-local copy of
// the generation and compare it against the server's with a single
// atomic load at each batch boundary — the only rollout cost a
// shadow-off batch ever pays. When the generation moved, the worker
// reconciles against the published state: it starts a shadow, drops
// one, or adopts the candidate as its primary. Everything a worker
// mutates is worker-owned session state, so promotion needs no
// per-session locking and lands exactly at a batch boundary — never
// mid-batch.
//
// Begin/Abort/Promote serialize on rolloutMu, so a transition always
// sees the state it read: a promote cannot race an abort into
// installing a superseded candidate, and the multi-step promote
// (spec-cache swap, durable provenance, publish) is atomic with
// respect to the other transitions. Workers stay lock-free — they only
// load the published pointer.
//
// Shadow soundness: a candidate monitor is only comparable to the
// primary when both have seen the identical frame prefix (warmup
// windows, prev() references and state machines all depend on it).
// Sessions therefore only shadow from their first frame: a session
// that already applied frames before the rollout began keeps running
// the old spec alone, and — having no comparable shadow — keeps the
// old spec and epoch even through a promote. New sessions arriving
// after the promote resolve the candidate directly from the spec
// cache. The e2e consequence: every delivered verdict is entirely one
// spec's, stamped with that spec's epoch, never a splice.

import (
	"errors"
	"fmt"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/speclang"
)

// rolloutMode is the phase of the published rollout state.
type rolloutMode int32

const (
	rolloutShadowing rolloutMode = iota + 1
	rolloutPromoted
)

// rolloutState is one immutable rollout phase. Transitions publish a
// fresh value and bump the server generation; workers reconcile against
// whatever value is current when they notice.
type rolloutState struct {
	mode  rolloutMode
	hash  string
	entry *specEntry
	epoch uint64 // nonzero once promoted

	// base is the server-lifetime shadow counters snapshotted when this
	// round began; ShadowStats subtracts it so every round reports from
	// zero. Carried unchanged through promote — the stats counters
	// themselves are cumulative metrics and never reset.
	base shadowBaseline
}

// shadowBaseline is one snapshot of the cumulative shadow counters.
type shadowBaseline struct {
	batches, divergentBatches, divergences, errors uint64
}

func (s *Server) shadowBaselineNow() shadowBaseline {
	return shadowBaseline{
		batches:          s.stats.shadowBatches.Value(),
		divergentBatches: s.stats.shadowDivergentBatches.Value(),
		divergences:      s.stats.shadowDivergences.Value(),
		errors:           s.stats.shadowErrors.Value(),
	}
}

// epochLedger is the optional ledger extension recording spec-epoch
// transitions; durable.Ledger implements it. Recorded on promote so
// crash recovery knows which spec generation produced ledgered
// verdicts.
type epochLedger interface {
	SpecEpochChanged(epoch uint64, hash string) error
}

// ShadowStats is a point-in-time view of the current rollout, the
// controller's feedback signal for promote/rollback decisions.
type ShadowStats struct {
	// Hash identifies the candidate; Promoted and Epoch report a
	// completed promote.
	Hash     string
	Promoted bool
	Epoch    uint64
	// Sessions counts sessions currently dual-evaluating.
	Sessions int64
	// Batches counts this round's shadow-compared batches;
	// DivergentBatches those where the two specs disagreed; Divergences
	// the per-rule event count deltas summed over divergent batches;
	// Errors candidate evaluation failures (each costs that session its
	// shadow). All four start at zero for every round.
	Batches, DivergentBatches, Divergences, Errors uint64
}

// BeginShadow compiles source as the candidate spec and starts shadow
// mode: eligible sessions (default-spec, and not yet past their first
// frame) evaluate it alongside their primary from their next batch on.
// A rollout already in flight is replaced — its shadows are dropped at
// each worker's next boundary. The hash is the caller's identity for
// the candidate (the registry's content hash); Promote and Abort must
// present the same one.
func (s *Server) BeginShadow(hash, source string) error {
	if hash == "" {
		return errors.New("fleet: shadow requires a candidate hash")
	}
	entry, err := s.compileCandidate(source)
	if err != nil {
		return fmt.Errorf("fleet: candidate %s: %w", hash, err)
	}
	s.rolloutMu.Lock()
	defer s.rolloutMu.Unlock()
	s.rollout.Store(&rolloutState{
		mode:  rolloutShadowing,
		hash:  hash,
		entry: entry,
		base:  s.shadowBaselineNow(),
	})
	s.rolloutGen.Add(1)
	s.stats.shadowRounds.Add(1)
	return nil
}

// AbortShadow ends the rollout for hash without promoting: the
// published state is cleared and every shadowing session drops its
// candidate at the next batch boundary. No candidate state survives —
// zero candidate verdicts were ever deliverable, since shadow events
// never reach the emit path. A round that already promoted is past
// aborting — the candidate is the active spec with durable provenance
// written, so a late rollback must be refused, not half-applied.
func (s *Server) AbortShadow(hash string) error {
	s.rolloutMu.Lock()
	defer s.rolloutMu.Unlock()
	st := s.rollout.Load()
	if st == nil || st.hash != hash {
		return fmt.Errorf("fleet: no rollout for candidate %s", hash)
	}
	if st.mode == rolloutPromoted {
		return fmt.Errorf("fleet: candidate %s already promoted at epoch %d", hash, st.epoch)
	}
	s.rollout.Store(nil)
	s.rolloutGen.Add(1)
	return nil
}

// PromoteShadow makes the candidate the active spec at epoch:
//
//   - the default-spec cache entry is replaced, so sessions opened from
//     now on compile nothing and stamp the new epoch;
//   - the transition is recorded in the ledger (when it tracks epochs)
//     and as an archive epoch marker, before any session can deliver a
//     candidate-stamped verdict;
//   - shadowing sessions adopt their candidate monitor — warm, fed the
//     identical frame prefix — at their next batch boundary, retallied
//     as if the candidate had been primary all along.
//
// Sessions that predate the shadow round (no comparable candidate
// state) deliberately keep the old spec and epoch to the end of their
// stream.
func (s *Server) PromoteShadow(hash string, epoch uint64) error {
	if epoch == 0 {
		return errors.New("fleet: promote requires a nonzero epoch")
	}
	// rolloutMu is held across every check and mutation below, so no
	// Begin/Abort can supersede the round after the checks pass: once
	// this function commits the spec cache and the durable records, the
	// publish is guaranteed to follow.
	s.rolloutMu.Lock()
	defer s.rolloutMu.Unlock()
	st := s.rollout.Load()
	if st == nil || st.hash != hash {
		return fmt.Errorf("fleet: no rollout for candidate %s", hash)
	}
	if st.mode != rolloutShadowing {
		return fmt.Errorf("fleet: candidate %s is not shadowing", hash)
	}
	s.specMu.Lock()
	if epoch <= s.activeEpoch {
		cur := s.activeEpoch
		s.specMu.Unlock()
		return fmt.Errorf("fleet: promote epoch %d not beyond active epoch %d", epoch, cur)
	}
	s.specs[""] = st.entry
	s.activeEpoch = epoch
	s.specMu.Unlock()

	// Provenance before visibility: the durable records land before the
	// state that lets workers stamp the new epoch is published.
	if el, ok := s.cfg.Ledger.(epochLedger); ok {
		if err := el.SpecEpochChanged(epoch, hash); err != nil {
			s.stats.ledgerErrors.Add(1)
		}
	}
	s.archiveEpoch(epoch, hash)

	s.rollout.Store(&rolloutState{mode: rolloutPromoted, hash: hash, entry: st.entry, epoch: epoch, base: st.base})
	s.rolloutGen.Add(1)
	s.stats.shadowPromotes.Add(1)
	return nil
}

// ShadowStats reports the current rollout's live counters; ok is false
// when no rollout is published. The counters are per-round: the
// cumulative stats are read against the baseline BeginShadow
// snapshotted, so a fresh round reports from zero and the controller's
// thresholds never act on an earlier round's evidence.
func (s *Server) ShadowStats() (st ShadowStats, ok bool) {
	r := s.rollout.Load()
	if r == nil {
		return ShadowStats{}, false
	}
	return ShadowStats{
		Hash:             r.hash,
		Promoted:         r.mode == rolloutPromoted,
		Epoch:            r.epoch,
		Sessions:         s.shadowSessions.Load(),
		Batches:          s.stats.shadowBatches.Value() - r.base.batches,
		DivergentBatches: s.stats.shadowDivergentBatches.Value() - r.base.divergentBatches,
		Divergences:      s.stats.shadowDivergences.Value() - r.base.divergences,
		Errors:           s.stats.shadowErrors.Value() - r.base.errors,
	}, true
}

// ActiveEpoch returns the epoch new default-spec sessions are stamped
// with.
func (s *Server) ActiveEpoch() uint64 {
	s.specMu.Lock()
	defer s.specMu.Unlock()
	return s.activeEpoch
}

// compileCandidate builds a specEntry from spec source, exactly as the
// cached resolve path does but outside the cache: a candidate only
// enters s.specs at promote. Its monitor metrics live under the stable
// "candidate" spec label, so re-pushing a candidate reuses the same
// series.
func (s *Server) compileCandidate(source string) (*specEntry, error) {
	f, err := speclang.Parse(source)
	if err != nil {
		return nil, err
	}
	rs, err := speclang.Compile(f, s.cfg.DB.SignalNames())
	if err != nil {
		return nil, err
	}
	mon, err := core.New(core.Config{
		Rules:     rs,
		Period:    s.cfg.Period,
		DeltaMode: s.cfg.DeltaMode,
		Triage:    s.cfg.Triage,
	})
	if err != nil {
		return nil, err
	}
	e := &specEntry{mon: mon}
	for _, r := range rs.Rules() {
		e.rules = append(e.rules, r.Name)
	}
	e.met = core.NewMetrics(s.reg, "candidate", e.rules)
	if flt := s.cfg.Flight; flt != nil {
		for _, r := range e.rules {
			e.frules = append(e.frules, flt.Intern(r))
		}
	}
	return e, nil
}

// syncRollout reconciles this session with the published rollout state.
// Called only when the worker's generation fell behind, always at a
// batch boundary, from the worker goroutine — every field it touches is
// worker-owned.
func (sess *session) syncRollout(gen uint64) {
	sess.rolloutGen = gen
	st := sess.srv.rollout.Load()
	if sess.shadow != nil && (st == nil || st.hash != sess.shadowHash) {
		// The round this shadow belonged to is gone (aborted or
		// replaced): discard the candidate, deliver nothing of it.
		sess.dropShadow()
	}
	if st == nil {
		return
	}
	switch st.mode {
	case rolloutShadowing:
		if sess.shadow != nil || sess.specName != "" {
			return
		}
		if sess.sawFrame || sess.ingested > 0 {
			// Mid-stream: a candidate started now would disagree on
			// warmup and history, so its divergences would be noise.
			return
		}
		sm, err := st.entry.mon.Shadow(sess.srv.cfg.DB)
		if err != nil {
			sess.srv.stats.shadowErrors.Add(1)
			return
		}
		sess.shadow = sm
		sess.shadowHash = st.hash
		sess.shadowEntry = st.entry
		sess.shadowTally = make(map[string]*ruleTally, len(st.entry.rules))
		if sess.divScratch == nil {
			sess.divScratch = make(map[string]int)
		}
		sess.srv.shadowSessions.Add(1)
	case rolloutPromoted:
		if sess.shadow != nil && sess.shadowHash == st.hash {
			sess.adoptShadow(st)
		}
	}
}

// adoptShadow swaps the candidate in as the session's primary. The
// shadow saw the identical frame prefix, so the adopted monitor is the
// exact state the candidate would hold had it been primary from the
// session's first frame; the accumulated shadow tally becomes the
// verdict tally for the same reason. The old monitor is closed silently
// — its end-of-stream events are the old spec's and must not be
// delivered.
func (sess *session) adoptShadow(st *rolloutState) {
	old := sess.om
	om := sess.shadow.Promote()
	om.Instrument(st.entry.met)
	sess.om = om
	sess.entry = st.entry
	sess.specEpoch = st.epoch
	sess.tally = sess.shadowTally

	sess.shadow = nil
	sess.shadowHash = ""
	sess.shadowEntry = nil
	sess.shadowTally = nil
	sess.primShadow = sess.primShadow[:0]
	sess.srv.shadowSessions.Add(-1)
	sess.srv.stats.shadowAdoptions.Add(1)

	old.Close()
}

// dropShadow discards the session's candidate without delivering
// anything of it.
func (sess *session) dropShadow() {
	sess.shadow.Close()
	sess.shadow = nil
	sess.shadowHash = ""
	sess.shadowEntry = nil
	sess.shadowTally = nil
	sess.primShadow = sess.primShadow[:0]
	sess.srv.shadowSessions.Add(-1)
}

// shadowFeed runs one applied frame run through the candidate and
// retains the primary's events for the batch-boundary comparison. A
// candidate evaluation failure is the candidate's problem, not the
// session's: the shadow is dropped and counted, the session streams on.
func (sess *session) shadowFeed(run []can.Frame, primaryEvs []core.OnlineEvent) {
	if err := sess.shadow.Push(run); err != nil {
		sess.srv.stats.shadowErrors.Add(1)
		sess.dropShadow()
		return
	}
	sess.primShadow = append(sess.primShadow, primaryEvs...)
}

// shadowCompare settles one batch of dual evaluation: fold the
// candidate's closed violations into the adoption tally, compare the
// two event streams, and account any divergence per rule and vehicle.
// Runs at most once per batch, only while shadowing.
func (sess *session) shadowCompare(seq uint64) {
	cand := sess.shadow.BatchEvents()
	for _, e := range cand {
		if e.Kind == speclang.ViolationEnd {
			tallyViolation(sess.shadowTally, e)
		}
	}
	stats := &sess.srv.stats
	stats.shadowBatches.Add(1)
	if div := core.ShadowDivergence(sess.divScratch, sess.primShadow, cand); div != nil {
		stats.shadowDivergentBatches.Add(1)
		var total uint64
		for rule, d := range div {
			if d < 0 {
				d = -d
			}
			total += uint64(d)
			sess.srv.shadowDivergenceCounter(rule, sess.vehicle).Add(uint64(d))
		}
		stats.shadowDivergences.Add(total)
		sess.recordShadowDivergence(seq, div)
	}
	sess.primShadow = sess.primShadow[:0]
	sess.shadow.EndBatch()
}

// shadowDivergenceCounter returns the per-rule, per-vehicle divergence
// counter. Divergent batches are rare by construction (a healthy
// candidate produces none), so the registry lookup per divergence is
// off any hot path; the registry interns by name+labels, so repeated
// lookups return the same cell.
func (s *Server) shadowDivergenceCounter(rule, vehicle string) *obs.Counter {
	if rule == "" {
		rule = "(timing)"
	}
	return s.reg.Counter("cpsmon_shadow_rule_divergences_total",
		"Shadow-mode event-count divergences between active and candidate spec, per rule and vehicle.",
		obs.Label{Name: "rule", Value: rule}, obs.Label{Name: "vehicle", Value: vehicle})
}

// recordShadowDivergence samples a divergent batch into the flight
// recorder as zero-duration eval spans under interned "shadow:<rule>"
// refs — they surface in /debug/flight and monitorctl -top as named
// rows without perturbing stage latency sums. Divergences are rare, so
// every one is recorded rather than sampled.
func (sess *session) recordShadowDivergence(seq uint64, div map[string]int) {
	flt := sess.srv.cfg.Flight
	if flt == nil {
		return
	}
	now := time.Now()
	for rule := range div {
		if rule == "" {
			rule = "(timing)"
		}
		flt.Record(sess.id, sess.fveh, flight.StageEval, flt.Intern("shadow:"+rule), seq, now, 0)
	}
}

package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/wire"
)

// RestoredSession is one unfinished session's durable identity as a
// ledger recorded it, handed to NewRestorer by the recovery engine.
type RestoredSession struct {
	// ID and Token are the session's original grant; Proto its wire
	// protocol version, which must be wire.Version — a session granted
	// under another version cannot resume against this server; Vehicle
	// and Spec its Hello selections.
	ID, Token uint64
	Proto     uint16
	Vehicle   string
	Spec      string
	// AckSeq is the last batch sequence the previous process
	// acknowledged; Frames and Rejected the cumulative applied and
	// rejected frame counts at that watermark. The rebuild replays
	// archived frames until exactly Frames of them have been applied.
	AckSeq, Frames, Rejected uint64
	// Verdict, when non-nil, marks a finalized session; EventSeq is the
	// event count its VerdictSeq carried, and Delivered whether a
	// verdict write ever reached the transport.
	Verdict   *wire.Verdict
	EventSeq  uint64
	Delivered bool
}

// RestoreSkips tells Finish how much of the session's upcoming output
// the previous process already archived past the last watermark.
// Post-crash, the client retransmits the unacknowledged batches and
// deterministic re-application regenerates byte-identical runs, events
// and verdict — so the session skips archiving
// exactly these counts, keeping the archive free of duplicates without
// any read-side dedup.
type RestoreSkips struct {
	// Frames is the archived frame count beyond the watermark; Events
	// the archived event count beyond the rebuilt event list; Verdict
	// whether a verdict record is already archived.
	Frames, Events uint64
	Verdict        bool
}

// Restorer rebuilds one ledgered session's in-memory monitor state by
// replaying its archived frames, then parks it so the client's resume
// finds it exactly where the crash left it. Use it strictly as
//
//	r, err := srv.NewRestorer(info)
//	r.PushFrames(...) // once per archived frames record, in order
//	r.Finish(skips)   // or r.Abort() on any error
//
// before the server starts accepting connections; a Restorer is not
// safe for concurrent use.
type Restorer struct {
	srv  *Server
	sess *session
	info RestoredSession
	done bool
}

// NewRestorer validates a ledgered session and prepares its monitor
// for the archive replay. The returned Restorer must be resolved with
// Finish or Abort before the server serves traffic.
func (s *Server) NewRestorer(info RestoredSession) (*Restorer, error) {
	if s.cfg.Ledger == nil {
		return nil, errors.New("fleet: restore requires a configured Ledger")
	}
	if info.Proto != wire.Version || info.Token == 0 {
		return nil, fmt.Errorf("fleet: session %d is not resumable (proto %d, token %#x)", info.ID, info.Proto, info.Token)
	}
	if s.closed.Load() {
		return nil, errors.New("fleet: server closed")
	}
	s.parkMu.Lock()
	_, dupParked := s.parkedBy[info.Token]
	_, dupAttached := s.attached[info.Token]
	s.parkMu.Unlock()
	if dupParked || dupAttached {
		return nil, fmt.Errorf("fleet: session %d token already present", info.ID)
	}
	// The rebuild resolves the spec by name against the *current*
	// deployment — the replay runs through whatever the default spec is
	// now — so an unfinalized session is stamped with the current
	// active epoch. A finalized one instead inherits the epoch its
	// ledgered verdict carries (see Finish), keeping the byte-equality
	// check honest.
	entry, epoch, err := s.specFor(info.Spec)
	if err != nil {
		return nil, fmt.Errorf("fleet: session %d spec %q: %w", info.ID, info.Spec, err)
	}
	om, err := entry.mon.Online(s.cfg.DB)
	if err != nil {
		return nil, fmt.Errorf("fleet: session %d monitor: %w", info.ID, err)
	}
	sess := &session{
		id:        info.ID,
		srv:       s,
		token:     info.Token,
		vehicle:   info.Vehicle,
		om:        om,
		entry:     entry,
		specName:  info.Spec,
		specEpoch: epoch,
		tally:     make(map[string]*ruleTally, len(entry.rules)),
		// rebuilding suppresses archiving, hooks and emission counters:
		// the replay reproduces state, it must not re-report anything.
		rebuilding: true,
	}
	s.stats.sessionsOpened.Add(1)
	return &Restorer{srv: s, sess: sess, info: info}, nil
}

// Frames returns the cumulative frame count applied so far, for the
// caller to align archived records against the ledger watermark.
func (r *Restorer) Frames() uint64 { return r.sess.ingested }

// Events returns the event count regenerated so far.
func (r *Restorer) Events() uint64 { return uint64(len(r.sess.events)) }

// PushFrames replays one archived frames record through the session's
// monitor, regenerating the events (violations, silence gaps) the
// original run produced.
func (r *Restorer) PushFrames(frames []can.Frame) error {
	if r.done {
		return errors.New("fleet: restorer already resolved")
	}
	out, err := r.sess.apply(frames)
	if err != nil {
		return fmt.Errorf("fleet: session %d replay: %w", r.sess.id, err)
	}
	// Events are retained directly — the emit path is for live clients;
	// a resume after recovery replays this list with the same sequence
	// numbers the original emission used.
	r.sess.events = append(r.sess.events, out...)
	return nil
}

// Finish checks the rebuild against the ledger watermark, restores the
// session's sequencing state and parks it for resume. A finalized
// session additionally regenerates its close-of-stream events and
// verifies the rebuilt verdict is byte-identical to the ledgered one —
// a mismatch means archive and ledger disagree and the session cannot
// be served truthfully.
func (r *Restorer) Finish(skips RestoreSkips) error {
	if r.done {
		return errors.New("fleet: restorer already resolved")
	}
	sess, info, s := r.sess, r.info, r.srv
	if sess.ingested != info.Frames || sess.rejected != 0 {
		err := fmt.Errorf("fleet: session %d rebuild applied %d frames, rejected %d; ledger watermark says %d applied — archive and ledger disagree",
			info.ID, sess.ingested, sess.rejected, info.Frames)
		r.Abort()
		return err
	}
	sess.rejected = info.Rejected
	sess.lastApplied = info.AckSeq
	sess.lastEnq = info.AckSeq
	sess.ledgeredSeq = info.AckSeq
	sess.skipArchFrames = skips.Frames
	sess.skipArchEvents = skips.Events
	sess.skipArchVerdict = skips.Verdict

	if info.Verdict != nil {
		sess.specEpoch = info.Verdict.SpecEpoch
		evs, err := sess.om.Close()
		if err != nil {
			r.Abort()
			return fmt.Errorf("fleet: session %d close replay: %w", info.ID, err)
		}
		sess.events = append(sess.events, sess.convert(nil, evs)...)
		if uint64(len(sess.events)) != info.EventSeq {
			err := fmt.Errorf("fleet: session %d rebuilt %d events, ledger verdict covers %d",
				info.ID, len(sess.events), info.EventSeq)
			r.Abort()
			return err
		}
		if got := sess.verdict(); !bytes.Equal(wire.Marshal(got), wire.Marshal(*info.Verdict)) {
			r.Abort()
			return fmt.Errorf("fleet: session %d rebuilt verdict differs from the ledgered one", info.ID)
		}
		sess.verdictRec = &wire.VerdictSeq{EventSeq: info.EventSeq, Verdict: *info.Verdict}
		sess.finalized = true
		sess.delivered = info.Delivered
		s.stats.sessionsClosed.Add(1)
	}

	sess.rebuilding = false
	sess.om.Instrument(sess.entry.met)
	sess.setupFlight()
	// New sessions must never reuse a recovered ID: per-session archive
	// queries and ledger folds key on it. SessionBase normally covers
	// this; the CAS keeps the invariant even without it.
	for {
		cur := s.nextID.Load()
		if cur >= info.ID || s.nextID.CompareAndSwap(cur, info.ID) {
			break
		}
	}
	s.stats.sessionsRestored.Add(1)
	r.done = true

	s.parkMu.Lock()
	p := &parked{sess: sess}
	p.timer = time.AfterFunc(s.cfg.ResumeGrace, func() { s.reap(sess.token) })
	s.parkedBy[sess.token] = p
	s.parkMu.Unlock()
	return nil
}

// Abort discards a rebuild that cannot be completed, closing the
// monitor and balancing the session counters. The caller decides what
// to tell the ledger.
func (r *Restorer) Abort() {
	if r.done {
		return
	}
	r.done = true
	r.sess.om.Close()
	r.srv.stats.sessionsClosed.Add(1)
	r.srv.stats.restoreFailed.Add(1)
}

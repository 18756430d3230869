package durable

import (
	"fmt"
	"slices"

	"cpsmon/internal/archive"
	"cpsmon/internal/fleet"
)

// ensure the ledger keeps satisfying the server's interface.
var _ fleet.Ledger = (*Ledger)(nil)

// RecoveryStats summarizes one startup recovery pass.
type RecoveryStats struct {
	// SessionsRecovered counts sessions rebuilt and parked for resume;
	// SessionsFinalized is the subset already holding a verdict the
	// previous process never confirmed delivering. SessionsFailed counts
	// ledgered sessions that could not be rebuilt (archive and ledger
	// disagreed, or the spec no longer loads) — each is closed in the
	// ledger so the next startup does not retry it.
	SessionsRecovered, SessionsFinalized, SessionsFailed int
	// FramesReplayed counts archived frames re-applied to monitors.
	// OrphanFrames counts archived frames beyond the ledger watermark —
	// written by the previous process but never acknowledged; they are
	// not replayed, and the rebuilt sessions will skip re-archiving them
	// when the client resends.
	FramesReplayed, OrphanFrames uint64
}

// track is one live session's progress through the archive pass.
type track struct {
	r        *fleet.Restorer
	info     *Session
	want     uint64 // ledger watermark frame count — the replay bound
	pushed   uint64
	orphans  uint64 // archived frames beyond the watermark
	events   uint64 // archived event records seen
	verdicts uint64 // archived verdict records seen
	failed   bool
}

// Recover rebuilds every unfinished session in led's state on srv by
// replaying its archived frames, then parks each for the client's
// resume. It must run after fleet.NewServer and before srv.Listen. cat
// reads the same archive directory the previous process wrote (open
// the catalog after the archive Writer, so torn segment tails are
// already healed). A nil cat is only acceptable when no session has
// frames to replay.
//
// Sessions that cannot be rebuilt are abandoned: their monitors are
// closed, the failure is counted, and a closed record is appended to
// the ledger so the next startup does not see them again.
func Recover(led *Ledger, cat *archive.Catalog, srv *fleet.Server) (RecoveryStats, error) {
	st := led.State()
	var rs RecoveryStats
	live := make(map[uint64]*track)
	fail := func(t *track) {
		if t.failed {
			return
		}
		t.failed = true
		if t.r != nil {
			t.r.Abort()
			t.r = nil
		}
	}
	for id, info := range st.Sessions {
		if info.Closed {
			continue // resolved for good
		}
		t := &track{info: info, want: info.Frames}
		live[id] = t
		r, err := srv.NewRestorer(fleet.RestoredSession{
			ID: info.ID, Token: info.Token, Proto: info.Proto,
			Vehicle: info.Vehicle, Spec: info.Spec,
			AckSeq: info.AckSeq, Frames: info.Frames, Rejected: info.Rejected,
			Verdict: info.Verdict, EventSeq: info.EventSeq, Delivered: info.Delivered,
		})
		if err != nil {
			fail(t)
			continue
		}
		t.r = r
	}

	// One pass over the whole archive, routing records to their
	// session's track. Records arrive in per-session write order (the
	// server's archive pump serializes them), which is all the replay
	// needs; cross-session interleaving is irrelevant.
	if cat != nil {
		it := cat.Iter(archive.Query{})
		for it.Next() {
			rec := it.Record()
			t := live[rec.Session]
			if t == nil || t.failed {
				continue
			}
			switch rec.Kind {
			case archive.KindFrames:
				n := uint64(len(rec.Frames))
				switch {
				case t.pushed == t.want:
					// Beyond the watermark: archived but never
					// acknowledged. Not replayed — the client resends
					// these frames, and the rebuilt session skips
					// re-archiving exactly this many.
					t.orphans += n
				case t.pushed+n <= t.want:
					// rec.Frames is iterator scratch, but PushFrames
					// consumes it synchronously (rebuilding sessions never
					// enqueue to the archive pump), so no copy is needed.
					if err := t.r.PushFrames(rec.Frames); err != nil {
						fail(t)
						continue
					}
					t.pushed += n
				default:
					// A record straddling the watermark is impossible:
					// watermarks are written per batch, after the batch's
					// whole runs reached the archive. Seeing one means
					// ledger and archive are from different lives.
					fail(t)
				}
			case archive.KindEvent:
				t.events++
			case archive.KindVerdict:
				t.verdicts++
			}
		}
		if err := it.Err(); err != nil {
			// A broken archive fails recovery wholesale — guessing which
			// sessions lost records would serve corrupt state as truth.
			for _, t := range live {
				fail(t)
			}
			abandon(live, led, &rs)
			it.Close()
			return rs, fmt.Errorf("durable: archive scan: %w", err)
		}
		it.Close()
	}

	for _, id := range sortedIDs(live) {
		t := live[id]
		if !t.failed && t.pushed != t.want {
			// The archive holds fewer acknowledged frames than the ledger
			// watermark promises — acknowledged data was lost.
			fail(t)
		}
		if t.failed {
			continue
		}
		rebuilt := t.r.Events()
		skips := fleet.RestoreSkips{
			Frames: t.orphans,
			// Events regenerated during replay were archived back then;
			// any archived beyond that count belong to unacknowledged
			// batches the client is about to resend.
			Verdict: t.verdicts > 0 && t.info.Verdict == nil,
		}
		if t.events > rebuilt {
			skips.Events = t.events - rebuilt
		}
		if err := t.r.Finish(skips); err != nil {
			t.failed = true // Finish aborted the restorer itself
			continue
		}
		rs.SessionsRecovered++
		if t.info.Verdict != nil {
			rs.SessionsFinalized++
		}
		rs.FramesReplayed += t.pushed
		rs.OrphanFrames += t.orphans
		countRestored()
		countFramesReplayed(t.pushed)
	}
	abandon(live, led, &rs)
	return rs, nil
}

// abandon closes out every failed track: counts it and records the
// session closed in the ledger so the next startup skips it. Restorer
// teardown already happened when the track failed.
func abandon(live map[uint64]*track, led *Ledger, rs *RecoveryStats) {
	for _, id := range sortedIDs(live) {
		t := live[id]
		if !t.failed || t.info.Closed {
			continue
		}
		t.info.Closed = true // guard against double-abandon
		rs.SessionsFailed++
		countRestoreFailed()
		led.SessionClosed(id)
	}
}

// sortedIDs returns the track keys ascending, for deterministic
// restore order.
func sortedIDs(live map[uint64]*track) []uint64 {
	ids := make([]uint64, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

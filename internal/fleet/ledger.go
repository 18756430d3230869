package fleet

import "cpsmon/internal/wire"

// Ledger is the server's durable session log: a record of every
// session grant, every acknowledged watermark and every verdict,
// written *ahead* of the protocol message that promises it, so a
// process crash can never leave a client holding a promise the next
// process cannot honor. internal/durable implements it over an
// fsync'd append log.
//
// The ordering contract, per call site:
//
//   - SessionOpened is durable before the SessionGrant reaches the
//     client, so a granted token always resolves after a restart.
//   - Watermark is appended after every frame (and event) it covers
//     has been handed to the Archiver and flushed, and before any Ack
//     or resume grant acknowledging that sequence is written — an
//     acknowledged batch is therefore always rebuildable from the
//     archive. Watermarks are group-committed on a timer
//     (Config.WatermarkInterval) rather than per batch; acks simply
//     wait for the next commit, and a park, finish or drain forces
//     one. Implementations may group the fsync; the write itself must
//     hit the OS before returning, which is what a SIGKILL threat
//     model requires.
//   - VerdictReached is durable before the VerdictSeq reaches the
//     client, so a delivered verdict survives the process and is
//     re-served byte-identically, never re-decided.
//   - VerdictDelivered and SessionClosed are advisory bookkeeping
//     (best-effort durability is fine): they let recovery skip
//     sessions that are already resolved.
//
// A server with a Ledger requires an Archiver and refuses
// DropWhenFull: shed-batch gap events cannot be reproduced from
// archived frames, so crash-safe mode must be lossless.
//
// Calls arrive from session worker and handshake goroutines
// concurrently; implementations must be safe for concurrent use.
type Ledger interface {
	// SessionOpened records a granted session before the grant is sent.
	SessionOpened(session, token uint64, proto uint16, vehicle, spec string) error
	// Watermark records the acknowledged batch sequence and the
	// cumulative applied/rejected frame counts at that point.
	Watermark(session, ackSeq, frames, rejected uint64) error
	// VerdictReached records the session's verdict and the event count
	// its VerdictSeq carries.
	VerdictReached(session, eventSeq uint64, v wire.Verdict) error
	// VerdictDelivered records that a verdict write reached the
	// transport at least once.
	VerdictDelivered(session uint64) error
	// SessionClosed records that the session resolved for good and
	// recovery should never restore it.
	SessionClosed(session uint64) error
}

// logClosed appends a SessionClosed record, counting failures.
func (s *Server) logClosed(sess *session) {
	if led := s.cfg.Ledger; led != nil {
		if err := led.SessionClosed(sess.id); err != nil {
			s.stats.ledgerErrors.Add(1)
		}
	}
}

// logDelivered appends a VerdictDelivered record, counting failures.
func (s *Server) logDelivered(sess *session) {
	if led := s.cfg.Ledger; led != nil {
		if err := led.VerdictDelivered(sess.id); err != nil {
			s.stats.ledgerErrors.Add(1)
		}
	}
}

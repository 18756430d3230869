// Package durable makes monitord crash-safe: it persists the fleet
// server's session lifecycle in an fsync'd, CRC'd append log (the
// ledger) and, on restart, rebuilds every unfinished session's
// online-monitor state by replaying its archived frames — so a client
// reconnecting with its resume token after a kill -9 continues
// streaming and still receives its verdict exactly once.
//
// The ledger is a fold over an internal/recordlog log, the record
// discipline the archive and the spec registry share: little-endian
// length-prefixed records, each closed by a CRC-32C (Castagnoli) over
// its body, with torn tails truncated to the last valid record at
// open. The division of labor with internal/archive is deliberate —
// the archive holds the bulky, immutable trace (frames, events,
// verdicts); the ledger holds only the tiny facts the trace cannot
// carry: which tokens were granted, how far each session was
// acknowledged, and which verdicts the client may already hold.
//
// # Record layout
//
// Every record is a recordlog record whose body is
//
//	u8 kind | payload
//
// so on disk it reads u32 len | u8 kind | payload | u32 crc, where len
// counts everything after itself and the checksum covers kind plus
// payload. Kinds:
//
//	epoch     u64 epoch
//	open      u64 session | u64 token | u16 proto |
//	          u16 len + vehicle | u16 len + spec
//	watermark u64 session | u64 ackSeq | u64 frames | u64 rejected
//	verdict   u64 session | u64 eventSeq | embedded wire Verdict
//	delivered u64 session
//	closed    u64 session
//	specepoch u64 spec epoch | u16 len + spec content hash
//
// # Durability classes
//
// Records whose loss would break a protocol promise — epoch, open,
// verdict, specepoch — are fsync'd before the append returns. Watermarks are
// written immediately (surviving a process kill, the threat model this
// package is built for) and fsync'd in groups on a short interval, so
// a machine crash costs at most the last interval's acknowledgements.
// Delivered and closed records are advisory and ride along with the
// next sync.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cpsmon/internal/recordlog"
	"cpsmon/internal/wire"
)

// ledgerName is the ledger's file name inside the state directory.
const ledgerName = "ledger.log"

// Record kinds. The zero value is invalid on purpose: a zeroed tail
// never parses as a record.
const (
	recEpoch     = 0x01
	recOpen      = 0x02
	recWatermark = 0x03
	recVerdict   = 0x04
	recDelivered = 0x05
	recClosed    = 0x06
	recSpecEpoch = 0x07
)

const (
	// minBody is the smallest record body: kind + u64.
	minBody = 1 + 8
	// maxBody bounds a record body against corrupt length prefixes. It
	// is sized to the largest record the ledger writes: a verdict
	// record around any wire Verdict the codec can encode (u32 length
	// prefix plus at most wire.MaxRecordSize bytes).
	maxBody = 1 + 8 + 8 + 4 + wire.MaxRecordSize
	// defaultSyncEvery is the watermark group-fsync interval.
	defaultSyncEvery = 100 * time.Millisecond
)

// Session is one session's folded ledger state.
type Session struct {
	// ID, Token, Proto, Vehicle and Spec echo the SessionOpened record.
	ID, Token uint64
	Proto     uint16
	Vehicle   string
	Spec      string
	// AckSeq, Frames and Rejected are the last watermark: the highest
	// acknowledged batch sequence and the cumulative applied/rejected
	// frame counts at that point.
	AckSeq, Frames, Rejected uint64
	// Verdict is non-nil once a VerdictReached record was written;
	// EventSeq is the event count its VerdictSeq carried. Delivered
	// marks that a verdict write reached the transport.
	Verdict   *wire.Verdict
	EventSeq  uint64
	Delivered bool
	// Closed marks the session resolved for good — recovery skips it.
	Closed bool
}

// State is the fold of a whole ledger at open time.
type State struct {
	// Epoch is the epoch this process appended at open — one past the
	// highest epoch the ledger carried before.
	Epoch uint64
	// MaxSession is the highest session ID ever opened; the server's
	// SessionBase, so new grants never collide with recovered ones.
	MaxSession uint64
	// SpecEpoch and SpecHash are the last promoted spec generation the
	// ledger recorded, zero/empty before any promote. A restarting
	// monitord seeds its fleet Config.SpecEpoch from this so epochs
	// stay monotonic across processes.
	SpecEpoch uint64
	SpecHash  string
	// Sessions holds every session the ledger knows, keyed by ID,
	// including closed ones.
	Sessions map[uint64]*Session
}

// Ledger is the durable session log. It implements fleet.Ledger; one
// monitord process owns one ledger for its lifetime. Safe for
// concurrent use.
type Ledger struct {
	mu       sync.Mutex
	log      *recordlog.Log
	path     string
	st       State
	dirty    bool
	lastSync time.Time
	// syncEvery is the watermark group-commit window; tests shrink it.
	syncEvery time.Duration
}

// Open reads (and repairs) the ledger in dir, creating dir and the
// file as needed, folds its records into a State, and durably appends
// the new process epoch. The returned state is the recovery input; the
// ledger is ready for appends.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	path := filepath.Join(dir, ledgerName)
	st := State{Sessions: make(map[uint64]*Session)}
	log, cut, err := recordlog.Open(path, minBody, maxBody, func(body []byte) bool {
		// A checksummed record with an inner layout this code does not
		// understand — version skew or silent corruption — is treated
		// as the tear: everything before it is served.
		return foldRecord(&st, body[0], body[1:])
	})
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	if cut > 0 {
		// The previous process died mid-append, or the tail rotted.
		countTruncation()
	}
	l := &Ledger{log: log, path: path, st: st, syncEvery: defaultSyncEvery, lastSync: time.Now()}
	// Every open is a new epoch, recorded before anything else this
	// process does — a grant stamped with it can later prove which
	// ledger generation it came from.
	l.st.Epoch++
	if err := l.appendU64(recEpoch, l.st.Epoch, true); err != nil {
		log.Close()
		return nil, err
	}
	return l, nil
}

// Path returns the ledger file's path.
func (l *Ledger) Path() string { return l.path }

// Epoch returns this process's ledger epoch.
func (l *Ledger) Epoch() uint64 { return l.st.Epoch }

// State returns the fold of the ledger as it stood at Open (plus the
// epoch bump). Appends made since are deliberately not reflected: the
// state is the recovery engine's input, read once at startup.
func (l *Ledger) State() State { return l.st }

// foldRecord applies one validated record to the state, reporting
// false when the payload does not parse.
func foldRecord(st *State, kind byte, p []byte) bool {
	u64 := binary.LittleEndian.Uint64
	switch kind {
	case recEpoch:
		if len(p) != 8 {
			return false
		}
		st.Epoch = u64(p)
	case recOpen:
		if len(p) < 8+8+2+2 {
			return false
		}
		s := &Session{ID: u64(p), Token: u64(p[8:]), Proto: binary.LittleEndian.Uint16(p[16:])}
		rest := p[18:]
		var ok bool
		if s.Vehicle, rest, ok = cutString(rest); !ok {
			return false
		}
		if s.Spec, rest, ok = cutString(rest); !ok || len(rest) != 0 {
			return false
		}
		st.Sessions[s.ID] = s
		if s.ID > st.MaxSession {
			st.MaxSession = s.ID
		}
	case recWatermark:
		if len(p) != 32 {
			return false
		}
		if s := st.Sessions[u64(p)]; s != nil {
			s.AckSeq, s.Frames, s.Rejected = u64(p[8:]), u64(p[16:]), u64(p[24:])
		}
	case recVerdict:
		if len(p) < 16 {
			return false
		}
		s := st.Sessions[u64(p)]
		v, ok := decodeVerdict(p[16:])
		if !ok {
			return false
		}
		if s != nil {
			s.EventSeq = u64(p[8:])
			s.Verdict = &v
		}
	case recDelivered:
		if len(p) != 8 {
			return false
		}
		if s := st.Sessions[u64(p)]; s != nil {
			s.Delivered = true
		}
	case recClosed:
		if len(p) != 8 {
			return false
		}
		if s := st.Sessions[u64(p)]; s != nil {
			s.Closed = true
		}
	case recSpecEpoch:
		if len(p) < 10 {
			return false
		}
		hash, rest, ok := cutString(p[8:])
		if !ok || len(rest) != 0 {
			return false
		}
		st.SpecEpoch = u64(p)
		st.SpecHash = hash
	default:
		return false
	}
	return true
}

// cutString splits a u16-length-prefixed string off p.
func cutString(p []byte) (s string, rest []byte, ok bool) {
	if len(p) < 2 {
		return "", nil, false
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return "", nil, false
	}
	return string(p[2 : 2+n]), p[2+n:], true
}

// decodeVerdict unwraps the embedded wire Verdict record (length
// prefix, type byte, payload — exactly as wire.Marshal produces it).
func decodeVerdict(p []byte) (wire.Verdict, bool) {
	if len(p) < 5 {
		return wire.Verdict{}, false
	}
	n := binary.LittleEndian.Uint32(p)
	if int64(n) != int64(len(p)-4) {
		return wire.Verdict{}, false
	}
	rec, err := wire.Decode(p[4], p[5:])
	if err != nil {
		return wire.Verdict{}, false
	}
	v, ok := rec.(wire.Verdict)
	return v, ok
}

// append writes one record body (kind byte, then payload), fsyncing
// per the record's durability class: sync forces an immediate fsync;
// otherwise the write is group-committed on the syncEvery interval.
// Caller must not hold mu.
func (l *Ledger) append(body []byte, sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return errors.New("durable: ledger closed")
	}
	n, err := l.log.Append(body)
	if err != nil {
		return fmt.Errorf("durable: ledger append: %w", err)
	}
	countRecord(body[0], n)
	l.dirty = true
	if sync || time.Since(l.lastSync) >= l.syncEvery {
		return l.syncLocked()
	}
	return nil
}

// syncLocked fsyncs the ledger file. Caller holds mu.
func (l *Ledger) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.log.Sync(); err != nil {
		return fmt.Errorf("durable: ledger sync: %w", err)
	}
	l.dirty = false
	l.lastSync = time.Now()
	countFsync()
	return nil
}

// Sync forces any pending group-committed writes to disk.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	return l.syncLocked()
}

// Close syncs and closes the ledger file.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log == nil {
		return nil
	}
	err := l.syncLocked()
	if cerr := l.log.Close(); err == nil {
		err = cerr
	}
	l.log = nil
	return err
}

// SessionOpened implements fleet.Ledger: durable before returning.
func (l *Ledger) SessionOpened(session, token uint64, proto uint16, vehicle, spec string) error {
	if len(vehicle) > 0xFFFF || len(spec) > 0xFFFF {
		return fmt.Errorf("durable: vehicle/spec name over 64KiB")
	}
	p := make([]byte, 0, 1+8+8+2+2+len(vehicle)+2+len(spec))
	p = binary.LittleEndian.AppendUint64(append(p, recOpen), session)
	p = binary.LittleEndian.AppendUint64(p, token)
	p = binary.LittleEndian.AppendUint16(p, proto)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(vehicle)))
	p = append(p, vehicle...)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(spec)))
	return l.append(append(p, spec...), true)
}

// Watermark implements fleet.Ledger: written through to the OS
// immediately, fsync'd on the group-commit interval.
func (l *Ledger) Watermark(session, ackSeq, frames, rejected uint64) error {
	p := [1 + 32]byte{recWatermark}
	binary.LittleEndian.PutUint64(p[1:], session)
	binary.LittleEndian.PutUint64(p[9:], ackSeq)
	binary.LittleEndian.PutUint64(p[17:], frames)
	binary.LittleEndian.PutUint64(p[25:], rejected)
	return l.append(p[:], false)
}

// VerdictReached implements fleet.Ledger: durable before returning.
func (l *Ledger) VerdictReached(session, eventSeq uint64, v wire.Verdict) error {
	p := make([]byte, 0, 1+16+64)
	p = binary.LittleEndian.AppendUint64(append(p, recVerdict), session)
	p = binary.LittleEndian.AppendUint64(p, eventSeq)
	return l.append(wire.Append(p, v), true)
}

// VerdictDelivered implements fleet.Ledger (advisory durability).
func (l *Ledger) VerdictDelivered(session uint64) error {
	return l.appendU64(recDelivered, session, false)
}

// SessionClosed implements fleet.Ledger (advisory durability).
func (l *Ledger) SessionClosed(session uint64) error {
	return l.appendU64(recClosed, session, false)
}

// appendU64 appends a record whose payload is a single u64.
func (l *Ledger) appendU64(kind byte, v uint64, sync bool) error {
	p := [1 + 8]byte{kind}
	binary.LittleEndian.PutUint64(p[1:], v)
	return l.append(p[:], sync)
}

// SpecEpochChanged implements the fleet server's optional epoch-ledger
// extension: durable before returning, because the promote it records
// changes which spec every later verdict means.
func (l *Ledger) SpecEpochChanged(epoch uint64, hash string) error {
	if len(hash) > 0xFFFF {
		return fmt.Errorf("durable: spec hash over 64KiB")
	}
	p := make([]byte, 0, 1+8+2+len(hash))
	p = binary.LittleEndian.AppendUint64(append(p, recSpecEpoch), epoch)
	p = binary.LittleEndian.AppendUint16(p, uint16(len(hash)))
	return l.append(append(p, hash...), true)
}

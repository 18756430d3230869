// Package wire is the fleet ingest wire protocol: a compact,
// length-prefixed binary codec for streaming timestamped CAN frames and
// session control records between a vehicle-side uplink and a monitord
// ingest server.
//
// The protocol is deliberately dependency-light — its only repository
// import is the CAN frame type — so that both ends of the wire (an
// embedded uplink and the fleet server) can speak it without pulling in
// the monitor engine.
//
// # Framing
//
// Every record on the wire is
//
//	uint32 LE length | uint8 type | payload
//
// where length covers the type byte plus the payload. Integers are
// little-endian throughout, matching the repository's CAN log format.
// Strings are a uint16 length followed by raw bytes. Record payloads
// are fixed layouts per type (see each record's doc comment); decoding
// is strict — trailing bytes, truncated fields and implausible counts
// are errors, never panics.
//
// # Session flow
//
// There is one protocol version, Version. A client opens with
// Hello{Version} and receives a SessionGrant carrying a resume token
// and the server epoch (or an Error: a server refuses any other
// version). Data flows as sequence-numbered SeqBatch records which the
// server acknowledges cumulatively with Ack records; events come back
// as sequence-numbered SeqEvent records, and the stream ends with
// FinishSeq → VerdictSeq.
//
//	client                          server
//	  Hello{version,vehicle,spec} →
//	                              ← SessionGrant{session,token,0,epoch}
//	  SeqBatch{seq,frames} →      ← Ack{seq}
//	  SeqBatch{seq,frames} →      ← SeqEvent...         (as decidable)
//	  ...
//	  FinishSeq{lastSeq} →        ← SeqEvent...         (drained)
//	                              ← VerdictSeq{events,verdict}
//
// After a disconnect the client reconnects and sends Resume{token,
// last event seq, epoch} in place of a Hello; the server re-grants the
// session, reports the highest batch it applied, and replays unseen
// events, so both directions recover exactly-once delivery by sequence
// dedup out of bounded replay buffers. The epoch is a counter the
// server durably increments on every process start: a grant announces
// it and a resume echoes it back, so a restarted server can refuse a
// token minted by a newer instance than the state it recovered.
//
//	client                          server
//	  Resume{token,lastEventSeq,epoch} →
//	                              ← SessionGrant{session,token,ackSeq,epoch}
//	                              ← SeqEvent...         (replayed tail)
//	  SeqBatch{seq,frames} →      ← Ack{seq}
//	  FinishSeq{lastSeq} →        ← VerdictSeq{events,verdict}
//
// Every sequenced record (SeqBatch through VerdictSeq, types 0x08 and
// up) carries a trailing CRC-32C over its type byte and payload, so single flipped bits on a
// real link are rejected as malformed instead of silently accepted. A
// record whose framing was intact but whose payload fails to decode (or
// fails its checksum) surfaces as a *MalformedError, letting tolerant
// readers quarantine the record and keep the stream alive.
//
// # Stored records
//
// Event and Verdict are not sent on a connection; they are the
// encodings the archive and the session ledger store events and
// verdicts in, and SeqEvent and VerdictSeq embed their field layouts.
// A Verdict's trailing spec epoch is encoded only when nonzero, so
// verdicts stored before spec epochs existed still decode, with epoch
// zero.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"cpsmon/internal/can"
)

// Version is the protocol version this package speaks. It is carried
// in every Hello and Resume, and a server refuses any other value; it
// is bumped on any change to the record layouts below.
const Version = 4

// MaxRecordSize bounds a single record on the wire (length prefix
// included), so a corrupt or hostile peer cannot make the decoder
// allocate unboundedly. 1 MiB fits a frame batch of ~52k frames.
const MaxRecordSize = 1 << 20

// MaxFrameCount and MaxRuleCount bound the declared element counts of
// batch and verdict records at decode time. Both are the largest counts
// a MaxRecordSize record can physically carry, so they refuse nothing a
// legitimate encoder can produce — they exist so a hostile count field
// is rejected before any allocation is sized from it, independent of
// the payload-length cross-checks below.
const (
	MaxFrameCount = (MaxRecordSize - 9) / frameSize
	MaxRuleCount  = (MaxRecordSize - 9) / ruleVerdictSize
)

// ruleVerdictSize is the minimum encoded size of one RuleVerdict: an
// empty-name string (u16 length), the violated byte and four u32s.
const ruleVerdictSize = 19

// frameSize is the encoded size of one CAN frame: u64 time, u32 id,
// 8 data bytes.
const frameSize = 20

// Record types, one per concrete Record implementation. Types 0x08 and
// up are the sequenced records: all of them carry a trailing CRC-32C.
// 0x02–0x04 belonged to a retired unsequenced session flow and now
// decode as unknown types.
const (
	typeHello        = 0x01
	typeEvent        = 0x05
	typeVerdict      = 0x06
	typeError        = 0x07
	typeSeqBatch     = 0x08
	typeAck          = 0x09
	typeResume       = 0x0A
	typeSessionGrant = 0x0B
	typeSeqEvent     = 0x0C
	typeFinishSeq    = 0x0D
	typeVerdictSeq   = 0x0E
)

// checksummed reports whether a record type carries the trailing
// CRC-32C.
func checksummed(typ byte) bool { return typ >= typeSeqBatch && typ <= typeVerdictSeq }

// crcTable is the Castagnoli table shared by all checksummed records.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// EventKind distinguishes the two violation notifications.
type EventKind uint8

const (
	// EventBegin reports a violation interval opening.
	EventBegin EventKind = 1
	// EventEnd reports a closed violation interval, carrying the full
	// violation record and its triage class.
	EventEnd EventKind = 2
	// EventGap reports a hole in the monitored stream rather than a
	// rule violation: a bus-silence stretch or shed frames. Start and
	// End delimit the gap; Msg names its cause.
	EventGap EventKind = 3
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventBegin:
		return "begin"
	case EventEnd:
		return "end"
	case EventGap:
		return "gap"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Record is one protocol record. The concrete types are Hello, Error,
// the sequenced SeqBatch, Ack, Resume, SessionGrant, SeqEvent,
// FinishSeq and VerdictSeq, and the stored Event and Verdict.
type Record interface {
	wireType() byte
	appendPayload(buf []byte) []byte
}

// Hello opens a session: the client announces the protocol version it
// speaks, the vehicle identity, and which server-side rule set (spec)
// the session should be monitored against. An empty Spec selects the
// server's default.
type Hello struct {
	Version uint16
	Vehicle string
	Spec    string
}

func (Hello) wireType() byte { return typeHello }

func (h Hello) appendPayload(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, h.Version)
	buf = appendString(buf, h.Vehicle)
	return appendString(buf, h.Spec)
}

// Event is one incremental oracle notification. Begin events carry only
// Rule and Time; End events additionally carry the closed violation
// interval, its peak severity, message and triage class. The layout is
// identical for all kinds (unused fields encode as zero) so that an
// event stream has a single, pinned shape. On a connection events
// travel inside SeqEvent; the bare record is the archive's stored
// encoding.
type Event struct {
	Kind EventKind
	Rule string
	// Time is the violation start (begin) or exclusive end (end).
	Time time.Duration
	// StartStep and EndStep delimit the violating grid steps [start, end).
	StartStep, EndStep uint32
	// Start and End are the corresponding times.
	Start, End time.Duration
	// Peak is the maximum absolute severity over the interval.
	Peak float64
	// Msg describes the violated clause.
	Msg string
	// Class is the triage class ordinal (server-defined; 0 when unset).
	Class uint8
}

func (Event) wireType() byte { return typeEvent }

func (e Event) appendPayload(buf []byte) []byte { return appendEventFields(buf, e) }

func appendEventFields(buf []byte, e Event) []byte {
	buf = append(buf, byte(e.Kind))
	buf = appendString(buf, e.Rule)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Time))
	buf = binary.LittleEndian.AppendUint32(buf, e.StartStep)
	buf = binary.LittleEndian.AppendUint32(buf, e.EndStep)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Start))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.End))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(e.Peak))
	buf = appendString(buf, e.Msg)
	return append(buf, e.Class)
}

// RuleVerdict is the end-of-stream outcome of one rule.
type RuleVerdict struct {
	Rule string
	// Violated reports whether any violation interval closed.
	Violated bool
	// Violations counts closed intervals; Real/Transient/Negligible
	// split them by triage class.
	Violations, Real, Transient, Negligible uint32
}

// Verdict closes a session: per-rule outcomes in rule-set order plus
// the session's ingest accounting. On a connection it travels inside
// VerdictSeq; the bare record is the encoding the archive and the
// session ledger store verdicts in.
type Verdict struct {
	Rules []RuleVerdict
	// FramesIngested counts frames fed to the monitor; FramesDropped
	// counts frames shed under overload; FramesRejected counts frames
	// refused for arriving out of time order.
	FramesIngested, FramesDropped, FramesRejected uint64
	// SpecEpoch is the rollout generation of the spec that produced
	// this verdict, stamped by servers running the spec registry. Zero
	// — the only value a registry-less server produces — is encoded by
	// omitting the field, the layout verdicts were stored in before
	// spec epochs existed.
	SpecEpoch uint64
}

func (Verdict) wireType() byte { return typeVerdict }

func (v Verdict) appendPayload(buf []byte) []byte { return appendVerdictFields(buf, v) }

func appendVerdictFields(buf []byte, v Verdict) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v.Rules)))
	for _, r := range v.Rules {
		buf = appendString(buf, r.Rule)
		var b byte
		if r.Violated {
			b = 1
		}
		buf = append(buf, b)
		buf = binary.LittleEndian.AppendUint32(buf, r.Violations)
		buf = binary.LittleEndian.AppendUint32(buf, r.Real)
		buf = binary.LittleEndian.AppendUint32(buf, r.Transient)
		buf = binary.LittleEndian.AppendUint32(buf, r.Negligible)
	}
	buf = binary.LittleEndian.AppendUint64(buf, v.FramesIngested)
	buf = binary.LittleEndian.AppendUint64(buf, v.FramesDropped)
	buf = binary.LittleEndian.AppendUint64(buf, v.FramesRejected)
	if v.SpecEpoch != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, v.SpecEpoch)
	}
	return buf
}

// Error reports a protocol-level failure (bad hello, unknown spec,
// server refusal). After an Error the sender closes the connection.
type Error struct {
	Msg string
}

func (Error) wireType() byte { return typeError }

func (e Error) appendPayload(buf []byte) []byte { return appendString(buf, e.Msg) }

// ErrRemote is the sentinel wrapped by Error.Err, so callers can tell
// a deliberate server refusal apart from a transport failure with
// errors.Is.
var ErrRemote = errors.New("wire: remote error")

// Err converts the record into a Go error wrapping ErrRemote.
func (e Error) Err() error { return fmt.Errorf("%w: %s", ErrRemote, e.Msg) }

// SeqBatch carries a run of captured CAN frames in capture order,
// numbered with a session-scoped sequence (starting at 1, incremented
// per batch) and protected by the trailing CRC. The server acknowledges applied
// batches cumulatively with Ack records and discards duplicates, so a
// client replaying its unacknowledged tail after a resume delivers
// every frame exactly once.
type SeqBatch struct {
	Seq    uint64
	Frames []can.Frame
}

func (SeqBatch) wireType() byte { return typeSeqBatch }

func (b SeqBatch) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, b.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(b.Frames)))
	for _, f := range b.Frames {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(f.Time))
		buf = binary.LittleEndian.AppendUint32(buf, f.ID)
		buf = append(buf, f.Data[:]...)
	}
	return appendCRC(buf, at, typeSeqBatch)
}

// Ack is the server's cumulative acknowledgement: every SeqBatch with
// sequence number at most Seq has been applied to the session's
// monitor, so the client may release those batches from its replay
// buffer.
type Ack struct {
	Seq uint64
}

func (Ack) wireType() byte { return typeAck }

func (a Ack) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, a.Seq)
	return appendCRC(buf, at, typeAck)
}

// Resume reopens a suspended session after a disconnect: it stands in
// for the Hello on a reconnect, naming the session by the token from
// the original SessionGrant and the last event sequence number the
// client received (so the server replays only the unseen tail). Epoch
// echoes the server epoch from the grant that minted the token; a
// server refuses a resume from an epoch ahead of its own, since
// honouring it would roll the session back behind state the client has
// already observed.
type Resume struct {
	Version      uint16
	Token        uint64
	LastEventSeq uint64
	Epoch        uint64
}

func (Resume) wireType() byte { return typeResume }

func (r Resume) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint16(buf, r.Version)
	buf = binary.LittleEndian.AppendUint64(buf, r.Token)
	buf = binary.LittleEndian.AppendUint64(buf, r.LastEventSeq)
	buf = binary.LittleEndian.AppendUint64(buf, r.Epoch)
	return appendCRC(buf, at, typeResume)
}

// SessionGrant answers both Hello and Resume: the session identifier,
// the resume token for later reconnects, and AckSeq — the highest
// batch sequence the server has applied (zero for a fresh session).
// After a resume the client retransmits every buffered batch with a
// sequence above AckSeq. Epoch is the server's durable restart
// counter, echoed back in later Resume records.
type SessionGrant struct {
	Session uint64
	Token   uint64
	AckSeq  uint64
	Epoch   uint64
}

func (SessionGrant) wireType() byte { return typeSessionGrant }

func (g SessionGrant) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, g.Session)
	buf = binary.LittleEndian.AppendUint64(buf, g.Token)
	buf = binary.LittleEndian.AppendUint64(buf, g.AckSeq)
	buf = binary.LittleEndian.AppendUint64(buf, g.Epoch)
	return appendCRC(buf, at, typeSessionGrant)
}

// SeqEvent carries one Event, numbered with a session-scoped event
// sequence (starting at 1) so the client can
// discard duplicates replayed after a resume and detect holes.
type SeqEvent struct {
	Seq   uint64
	Event Event
}

func (SeqEvent) wireType() byte { return typeSeqEvent }

func (e SeqEvent) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, e.Seq)
	buf = appendEventFields(buf, e.Event)
	return appendCRC(buf, at, typeSeqEvent)
}

// FinishSeq declares end-of-stream and names the sequence number of the
// final batch, so a server that has
// not applied every batch (a loss the transport hid) can force a
// resume instead of issuing a short verdict.
type FinishSeq struct {
	Seq uint64
}

func (FinishSeq) wireType() byte { return typeFinishSeq }

func (f FinishSeq) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, f.Seq)
	return appendCRC(buf, at, typeFinishSeq)
}

// VerdictSeq carries the session's Verdict. EventSeq is the total
// number of events the session emitted; a client whose last received event
// sequence falls short has lost events in transit and resumes to
// recover them before accepting the verdict.
type VerdictSeq struct {
	EventSeq uint64
	Verdict  Verdict
}

func (VerdictSeq) wireType() byte { return typeVerdictSeq }

func (v VerdictSeq) appendPayload(buf []byte) []byte {
	at := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, v.EventSeq)
	buf = appendVerdictFields(buf, v.Verdict)
	return appendCRC(buf, at, typeVerdictSeq)
}

// appendCRC seals a checksummed payload: the trailing CRC-32C covers the type
// byte and the payload bytes appended since at.
func appendCRC(buf []byte, at int, typ byte) []byte {
	c := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, buf[at:])
	return binary.LittleEndian.AppendUint32(buf, c)
}

// MalformedError reports a record whose framing was intact — the length
// prefix was sane and the full body arrived — but whose payload failed
// to decode or failed its checksum. The reader consumed exactly one
// record, so the stream remains positioned at the next record boundary
// and a tolerant caller may quarantine the record and continue.
type MalformedError struct {
	// Type is the record's claimed type byte; Size its body length.
	Type byte
	Size int
	Err  error
}

func (e *MalformedError) Error() string {
	return fmt.Sprintf("wire: malformed record type 0x%02X (%d bytes): %v", e.Type, e.Size, e.Err)
}

func (e *MalformedError) Unwrap() error { return e.Err }

// Append encodes the record — length prefix, type byte, payload — onto
// buf and returns the extended slice.
func Append(buf []byte, rec Record) []byte {
	at := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = append(buf, rec.wireType())
	buf = rec.appendPayload(buf)
	binary.LittleEndian.PutUint32(buf[at:at+4], uint32(len(buf)-at-4))
	return buf
}

// Marshal encodes the record into a fresh buffer.
func Marshal(rec Record) []byte { return Append(nil, rec) }

// Write encodes the record onto w.
func Write(w io.Writer, rec Record) error {
	buf := Marshal(rec)
	countTx(rec.wireType(), len(buf))
	_, err := w.Write(buf)
	return err
}

// Read decodes the next record from r. It returns io.EOF only at a
// clean record boundary; a stream truncated mid-record yields
// io.ErrUnexpectedEOF.
func Read(r io.Reader) (Record, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read record length: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 {
		return nil, errors.New("wire: empty record")
	}
	if n > MaxRecordSize {
		return nil, fmt.Errorf("wire: record of %d bytes exceeds limit %d", n, MaxRecordSize)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: read record body: %w", err)
	}
	countRx(body[0], len(body)+4)
	rec, err := Decode(body[0], body[1:])
	if err != nil {
		// The framing held — exactly one record was consumed — so the
		// failure is quarantinable: wrap it so callers can tell it
		// apart from a framing or transport error.
		return nil, &MalformedError{Type: body[0], Size: len(body), Err: err}
	}
	return rec, nil
}

// Decode decodes one record payload of the given type. The payload must
// be exactly consumed; leftover bytes are an error. Checksummed record
// types verify their trailing CRC-32C before any field is read.
func Decode(typ byte, payload []byte) (Record, error) {
	if checksummed(typ) {
		if len(payload) < 4 {
			return nil, fmt.Errorf("wire: record type 0x%02X too short for its checksum", typ)
		}
		body := payload[:len(payload)-4]
		want := binary.LittleEndian.Uint32(payload[len(payload)-4:])
		got := crc32.Update(crc32.Checksum([]byte{typ}, crcTable), crcTable, body)
		if got != want {
			countCRCFailure()
			return nil, fmt.Errorf("wire: record type 0x%02X checksum mismatch", typ)
		}
		payload = body
	}
	d := decoder{buf: payload}
	var rec Record
	switch typ {
	case typeHello:
		var h Hello
		h.Version = d.u16()
		h.Vehicle = d.str()
		h.Spec = d.str()
		rec = h
	case typeEvent:
		rec = d.event()
	case typeVerdict:
		rec = d.verdict()
	case typeError:
		rec = Error{Msg: d.str()}
	case typeSeqBatch:
		b := SeqBatch{Seq: d.u64()}
		b.Frames = d.frames()
		rec = b
	case typeAck:
		rec = Ack{Seq: d.u64()}
	case typeResume:
		rec = Resume{Version: d.u16(), Token: d.u64(), LastEventSeq: d.u64(), Epoch: d.u64()}
	case typeSessionGrant:
		rec = SessionGrant{Session: d.u64(), Token: d.u64(), AckSeq: d.u64(), Epoch: d.u64()}
	case typeSeqEvent:
		e := SeqEvent{Seq: d.u64()}
		e.Event = d.event()
		rec = e
	case typeFinishSeq:
		rec = FinishSeq{Seq: d.u64()}
	case typeVerdictSeq:
		v := VerdictSeq{EventSeq: d.u64()}
		v.Verdict = d.verdict()
		rec = v
	default:
		return nil, fmt.Errorf("wire: unknown record type 0x%02X", typ)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.at != len(d.buf) {
		return nil, fmt.Errorf("wire: record type 0x%02X carries %d trailing bytes", typ, len(d.buf)-d.at)
	}
	return rec, nil
}

// frames decodes a counted frame run, bounding the declared count both
// against MaxFrameCount and against the bytes actually present, so a
// hostile count never sizes an allocation.
func (d *decoder) frames() []can.Frame {
	count := d.u32()
	if d.err != nil {
		return nil
	}
	if count > MaxFrameCount {
		d.err = fmt.Errorf("wire: frame batch declares %d frames (limit %d)", count, MaxFrameCount)
		return nil
	}
	if uint64(count)*frameSize != uint64(len(d.buf)-d.at) {
		d.err = fmt.Errorf("wire: frame batch declares %d frames over %d payload bytes", count, len(d.buf)-d.at)
		return nil
	}
	if count == 0 {
		return nil
	}
	frames := make([]can.Frame, count)
	for i := range frames {
		frames[i].Time = time.Duration(d.u64())
		frames[i].ID = d.u32()
		copy(frames[i].Data[:], d.bytes(8))
	}
	return frames
}

// event decodes the shared Event field layout.
func (d *decoder) event() Event {
	var e Event
	e.Kind = EventKind(d.u8())
	e.Rule = d.str()
	e.Time = time.Duration(d.u64())
	e.StartStep = d.u32()
	e.EndStep = d.u32()
	e.Start = time.Duration(d.u64())
	e.End = time.Duration(d.u64())
	e.Peak = math.Float64frombits(d.u64())
	e.Msg = d.str()
	e.Class = d.u8()
	if e.Kind != EventBegin && e.Kind != EventEnd && e.Kind != EventGap && d.err == nil {
		d.err = fmt.Errorf("wire: unknown event kind %d", e.Kind)
	}
	return e
}

// verdict decodes the shared Verdict field layout, bounding the rule
// count against MaxRuleCount and the bytes present.
func (d *decoder) verdict() Verdict {
	v := Verdict{}
	count := d.u32()
	if d.err == nil && (count > MaxRuleCount || uint64(count) > uint64(len(d.buf)-d.at)/ruleVerdictSize) {
		d.err = fmt.Errorf("wire: verdict declares %d rules over %d payload bytes", count, len(d.buf)-d.at)
		return v
	}
	if count > 0 && d.err == nil {
		v.Rules = make([]RuleVerdict, count)
		for i := range v.Rules {
			v.Rules[i].Rule = d.str()
			v.Rules[i].Violated = d.u8() != 0
			v.Rules[i].Violations = d.u32()
			v.Rules[i].Real = d.u32()
			v.Rules[i].Transient = d.u32()
			v.Rules[i].Negligible = d.u32()
		}
	}
	v.FramesIngested = d.u64()
	v.FramesDropped = d.u64()
	v.FramesRejected = d.u64()
	v.SpecEpoch = d.optU64()
	return v
}

func appendString(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// decoder is a bounds-checked cursor over one payload. The first
// overrun latches err and every later read returns zero values, so
// decode paths stay linear and check err once at the end.
type decoder struct {
	buf []byte
	at  int
	err error
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.at+n > len(d.buf) {
		d.err = fmt.Errorf("wire: truncated record: want %d bytes at offset %d of %d", n, d.at, len(d.buf))
		return nil
	}
	b := d.buf[d.at : d.at+n]
	d.at += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.bytes(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) str() string {
	n := int(d.u16())
	return string(d.bytes(n))
}

// optU64 reads a trailing optional u64: zero when the payload is
// already exhausted (a verdict stored without a spec epoch), the value
// otherwise. Record layouts may only use it for their final field, so
// the strict trailing-bytes check still rejects any other remainder.
func (d *decoder) optU64() uint64 {
	if d.err != nil || d.at == len(d.buf) {
		return 0
	}
	return d.u64()
}

// Package archive is the fleet's durable trace store: a segment-based,
// append-only archive of the frames, events and verdicts that flow
// through a monitord deployment.
//
// The paper's monitor is an offline oracle over *stored* bus captures,
// and its rules were revised repeatedly as archived violations taught
// the authors what the specs should have said — so every trace the
// fleet verdicts is worth keeping, because the next spec revision will
// want to re-check it. This package provides the storage half of that
// loop; internal/recheck provides the replay half.
//
// # Layout
//
// An archive is a directory of size-bounded segment files. The active
// segment is arch-<n>.part; sealed segments are arch-<n>.seg and are
// never written again. Every segment starts with a CRC-validated
// header:
//
//	[8]  magic "CPSARCH1"
//	u16  format version (1)
//	u64  segment number
//	u64  first record sequence
//	u16  reserved (0)
//	u32  CRC-32C over the 28 bytes above
//
// followed by records. Every record is one length-prefixed envelope
// around a wire-codec payload, framed by internal/recordlog's Seal and
// Check exactly as the session ledger and the spec registry frame
// theirs (integers little-endian, as everywhere in this repository):
//
//	u32  length (kind through CRC, i.e. everything below)
//	u8   kind (1 frames, 2 event, 4 verdict, 8 epoch)
//	u64  sequence (archive-wide, monotonically increasing from 1)
//	u64  session
//	u64  tmin, u64 tmax (capture-time span covered, nanoseconds)
//	u16  vehicle length | vehicle bytes
//	[]   payload
//	u32  CRC-32C over kind..payload
//
// A frames payload is a u32 count followed by count 20-byte frames in
// the wire batch layout (u64 time, u32 id, 8 data bytes). Event and
// verdict payloads embed one complete wire record exactly as
// wire.Append produces it, so the archive stores what moved on the
// wire and decodes with the same strict codec. An epoch payload is a
// u64 spec epoch followed by a u16-length-prefixed spec content hash;
// the record carries no session, vehicle or time span — its meaning is
// positional (every trace record after it in archive order was
// produced under that spec, until the next marker).
//
// Sealing a segment appends a sparse index block — one (sequence,
// tmin, offset) entry per stride of records — and a fixed-size footer:
//
//	u64  index block offset
//	u64  last record sequence
//	u64  tmin, u64 tmax (span of the whole segment)
//	u32  record count
//	u32  CRC-32C over the index block plus the 36 bytes above
//	[8]  magic "CPSARCIX"
//
// then fsyncs and atomically renames .part to .seg. A reader finds the
// footer at a fixed offset from the end of file; if it fails
// validation the segment is re-scanned record by record, so a damaged
// index costs speed, never data.
//
// # Recovery invariants
//
// Only the active .part can ever be torn (a crash mid-append); sealed
// segments are immutable and are never truncated or rewritten. Opening
// a Writer over a directory with a leftover .part scans it, truncates
// after the last record whose length, envelope and CRC all validate,
// seals it, and starts a fresh segment — so a torn tail loses at most
// the final partially-written record. A Catalog performs the same scan
// read-only (it never modifies files), serving every record before the
// tear.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"cpsmon/internal/recordlog"
	"cpsmon/internal/wire"
)

// Kind distinguishes record payloads. The values are single bits so a
// Query can select any subset with a mask.
type Kind uint8

const (
	// KindFrames is a run of applied CAN frames.
	KindFrames Kind = 1 << iota
	// KindEvent is one oracle notification (begin, end or gap).
	KindEvent
	// KindVerdict is a session's end-of-stream verdict.
	KindVerdict
	// KindEpoch is a spec promote marker: from this point in archive
	// order, the deployment's default spec is the one the record names.
	// Deliberately outside KindAll — trace queries and rechecks written
	// before spec provenance existed keep seeing exactly the records
	// they always did; provenance-aware readers opt in with the mask.
	KindEpoch

	// KindAll selects every trace record kind (frames, events,
	// verdicts). Epoch markers are metadata, not trace, and must be
	// selected explicitly.
	KindAll = KindFrames | KindEvent | KindVerdict
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindFrames:
		return "frames"
	case KindEvent:
		return "event"
	case KindVerdict:
		return "verdict"
	case KindEpoch:
		return "epoch"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

const (
	headerMagic = "CPSARCH1"
	footerMagic = "CPSARCIX"

	formatVersion = 1

	headerSize = 32
	footerSize = 48

	// envFixed is the envelope's fixed cost after the length prefix:
	// kind, sequence, session, tmin, tmax and the vehicle length.
	envFixed = 1 + 8 + 8 + 8 + 8 + 2

	// minRecordLen and maxRecordLen bound the length prefix of a
	// record (which counts kind through CRC). The ceiling is the
	// largest record the writer can be given: the envelope, a vehicle
	// name at its u16 limit, an embedded wire record (u32 length plus
	// up to wire.MaxRecordSize bytes) and the CRC. Nothing a legitimate
	// writer produces is refused, while a corrupt length can never
	// size a large read.
	minRecordLen = envFixed + 4
	maxRecordLen = envFixed + math.MaxUint16 + 4 + wire.MaxRecordSize + 4

	// indexEntrySize is one sparse index entry: sequence, tmin, offset.
	indexEntrySize = 24
)

// crcTable is the Castagnoli table, matching the wire protocol's CRCs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// segFileName names segment n: the atomic-rename pair .part → .seg.
func segFileName(n uint64, sealed bool) string {
	ext := "part"
	if sealed {
		ext = "seg"
	}
	return fmt.Sprintf("arch-%08d.%s", n, ext)
}

// parseSegName recognizes segment file names.
func parseSegName(name string) (n uint64, sealed, ok bool) {
	var num uint64
	var ext string
	if _, err := fmt.Sscanf(name, "arch-%d.%s", &num, &ext); err != nil {
		return 0, false, false
	}
	switch ext {
	case "seg":
		return num, true, true
	case "part":
		return num, false, true
	default:
		return 0, false, false
	}
}

// indexEntry is one sparse index row: the first record at or after
// offset off has sequence seq and span starting at tmin.
type indexEntry struct {
	seq  uint64
	tmin time.Duration
	off  int64
}

// appendHeader encodes a segment header.
func appendHeader(buf []byte, segNum, firstSeq uint64) []byte {
	buf = append(buf, headerMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint64(buf, segNum)
	buf = binary.LittleEndian.AppendUint64(buf, firstSeq)
	buf = binary.LittleEndian.AppendUint16(buf, 0) // reserved
	crc := crc32.Checksum(buf[len(buf)-28:], crcTable)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// parseHeader validates and decodes a segment header.
func parseHeader(b []byte) (segNum, firstSeq uint64, err error) {
	if len(b) < headerSize {
		return 0, 0, fmt.Errorf("archive: segment header truncated at %d bytes", len(b))
	}
	if string(b[:8]) != headerMagic {
		return 0, 0, fmt.Errorf("archive: bad segment magic %q", b[:8])
	}
	if got, want := crc32.Checksum(b[:28], crcTable), binary.LittleEndian.Uint32(b[28:32]); got != want {
		return 0, 0, fmt.Errorf("archive: segment header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint16(b[8:10]); v != formatVersion {
		return 0, 0, fmt.Errorf("archive: segment format version %d unsupported", v)
	}
	return binary.LittleEndian.Uint64(b[10:18]), binary.LittleEndian.Uint64(b[18:26]), nil
}

// envelope is one parsed record envelope. vehicle and payload are
// views into the caller's buffer, valid only until it is reused.
type envelope struct {
	kind       Kind
	seq        uint64
	session    uint64
	tmin, tmax time.Duration
	vehicle    []byte
	payload    []byte
}

// parseEnvelope validates one record body (the bytes the length prefix
// counts: kind through CRC) and returns its envelope.
func parseEnvelope(body []byte) (envelope, error) {
	var e envelope
	if len(body) < minRecordLen {
		return e, fmt.Errorf("archive: record body of %d bytes is shorter than the envelope", len(body))
	}
	data, ok := recordlog.Check(body)
	if !ok {
		return e, fmt.Errorf("archive: record checksum mismatch")
	}
	e.kind = Kind(data[0])
	if e.kind != KindFrames && e.kind != KindEvent && e.kind != KindVerdict && e.kind != KindEpoch {
		return e, fmt.Errorf("archive: unknown record kind %d", data[0])
	}
	e.seq = binary.LittleEndian.Uint64(data[1:9])
	e.session = binary.LittleEndian.Uint64(data[9:17])
	e.tmin = time.Duration(binary.LittleEndian.Uint64(data[17:25]))
	e.tmax = time.Duration(binary.LittleEndian.Uint64(data[25:33]))
	vlen := int(binary.LittleEndian.Uint16(data[33:35]))
	if envFixed+vlen > len(data) {
		return e, fmt.Errorf("archive: record declares a %d-byte vehicle over %d body bytes", vlen, len(data))
	}
	e.vehicle = data[envFixed : envFixed+vlen]
	e.payload = data[envFixed+vlen:]
	return e, nil
}

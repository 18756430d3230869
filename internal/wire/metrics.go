package wire

import (
	"sync/atomic"

	"cpsmon/internal/obs"
)

// Metrics counts codec traffic: records and bytes by direction and
// record type, plus CRC verification failures. The counters are
// pre-created per type byte at Instrument time, so the per-record cost
// is an array index and an atomic add — the codec hot path stays
// allocation-free with metrics enabled. Slot 0 (no record type uses
// byte 0) holds the type="unknown" series every unassigned or retired
// type byte a peer sends is counted under.
type Metrics struct {
	rxRecords [typeVerdictSeq + 1]*obs.Counter
	txRecords [typeVerdictSeq + 1]*obs.Counter
	rxBytes   [typeVerdictSeq + 1]*obs.Counter
	txBytes   [typeVerdictSeq + 1]*obs.Counter
	crcFails  *obs.Counter
}

// metrics gates instrumentation for the whole package. Write, Read and
// Decode are free functions shared by both ends of the wire, so the
// gate is package-level rather than threaded through every call site;
// a nil pointer (the default) costs one atomic load per record.
var metrics atomic.Pointer[Metrics]

// typeName names a record type byte for metric labels.
func typeName(typ byte) string {
	switch typ {
	case typeHello:
		return "hello"
	case typeEvent:
		return "event"
	case typeVerdict:
		return "verdict"
	case typeError:
		return "error"
	case typeSeqBatch:
		return "seq_batch"
	case typeAck:
		return "ack"
	case typeResume:
		return "resume"
	case typeSessionGrant:
		return "session_grant"
	case typeSeqEvent:
		return "seq_event"
	case typeFinishSeq:
		return "finish_seq"
	case typeVerdictSeq:
		return "verdict_seq"
	default:
		return "unknown"
	}
}

// Instrument registers the codec metric families on reg and starts
// counting every record this process reads, writes or fails to
// checksum-verify. Passing nil detaches. The gate is process-wide:
// the codec has no per-connection state to hang counters on, and a
// deployment runs one monitord per process.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	m := &Metrics{
		crcFails: reg.Counter("cpsmon_wire_crc_failures_total",
			"Records rejected for a CRC-32C mismatch."),
	}
	for typ := byte(0); typ <= typeVerdictSeq; typ++ {
		name := typeName(typ)
		if name == "unknown" && typ != 0 {
			continue // counted in slot 0
		}
		t := obs.Label{Name: "type", Value: name}
		m.rxRecords[typ] = reg.Counter("cpsmon_wire_records_total",
			"Records moved by the wire codec.", obs.Label{Name: "dir", Value: "rx"}, t)
		m.txRecords[typ] = reg.Counter("cpsmon_wire_records_total",
			"Records moved by the wire codec.", obs.Label{Name: "dir", Value: "tx"}, t)
		m.rxBytes[typ] = reg.Counter("cpsmon_wire_bytes_total",
			"Bytes moved by the wire codec, length prefix included.", obs.Label{Name: "dir", Value: "rx"}, t)
		m.txBytes[typ] = reg.Counter("cpsmon_wire_bytes_total",
			"Bytes moved by the wire codec, length prefix included.", obs.Label{Name: "dir", Value: "tx"}, t)
	}
	metrics.Store(m)
}

// slot maps a type byte to its counter index: the byte itself for a
// record type, 0 (the "unknown" series) for anything else.
func (m *Metrics) slot(typ byte) int {
	if int(typ) < len(m.rxRecords) && m.rxRecords[typ] != nil {
		return int(typ)
	}
	return 0
}

// countTx records one encoded record of n on-wire bytes.
func countTx(typ byte, n int) {
	if m := metrics.Load(); m != nil {
		i := m.slot(typ)
		m.txRecords[i].Inc()
		m.txBytes[i].Add(uint64(n))
	}
}

// countRx records one framed record of n on-wire bytes. It runs before
// payload decoding, so malformed records — unknown type bytes included
// — are counted too: they moved over the wire regardless.
func countRx(typ byte, n int) {
	if m := metrics.Load(); m != nil {
		i := m.slot(typ)
		m.rxRecords[i].Inc()
		m.rxBytes[i].Add(uint64(n))
	}
}

// countCRCFailure records one checksum rejection.
func countCRCFailure() {
	if m := metrics.Load(); m != nil {
		m.crcFails.Inc()
	}
}

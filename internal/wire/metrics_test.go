package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"cpsmon/internal/can"
	"cpsmon/internal/obs"
)

// TestCodecMetrics round-trips records through an instrumented codec
// and checks the per-type traffic counters plus the CRC failure count.
func TestCodecMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	var buf bytes.Buffer
	recs := []Record{
		Hello{Version: 2, Vehicle: "veh-1"},
		SeqBatch{Seq: 1, Frames: []can.Frame{{ID: 0x100}}},
		Ack{Seq: 1},
	}
	for _, r := range recs {
		if err := Write(&buf, r); err != nil {
			t.Fatal(err)
		}
	}
	wireBytes := buf.Len()
	for range recs {
		if _, err := Read(&buf); err != nil {
			t.Fatal(err)
		}
	}

	m := metrics.Load()
	for _, r := range recs {
		typ := r.wireType()
		if got := m.txRecords[typ].Value(); got != 1 {
			t.Errorf("tx records[%s] = %d, want 1", typeName(typ), got)
		}
		if got := m.rxRecords[typ].Value(); got != 1 {
			t.Errorf("rx records[%s] = %d, want 1", typeName(typ), got)
		}
	}
	var txTotal, rxTotal uint64
	for i := range m.txBytes {
		if m.txBytes[i] != nil { // unassigned type bytes share slot 0
			txTotal += m.txBytes[i].Value()
			rxTotal += m.rxBytes[i].Value()
		}
	}
	if txTotal != uint64(wireBytes) || rxTotal != uint64(wireBytes) {
		t.Errorf("byte counters tx=%d rx=%d, want both %d", txTotal, rxTotal, wireBytes)
	}

	// Flip one payload bit of a checksummed record: the CRC failure
	// counter must advance and the read must surface a MalformedError.
	var corrupt bytes.Buffer
	if err := Write(&corrupt, Ack{Seq: 7}); err != nil {
		t.Fatal(err)
	}
	raw := corrupt.Bytes()
	raw[binary.LittleEndian.Uint32(raw[:4])] ^= 0x01 // last payload byte
	var me *MalformedError
	if _, err := Read(bytes.NewReader(raw)); !errors.As(err, &me) {
		t.Fatalf("corrupt read error = %v, want MalformedError", err)
	}
	if got := m.crcFails.Value(); got != 1 {
		t.Errorf("crc failures = %d, want 1", got)
	}

	// The counters must surface under the documented family names.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cpsmon_wire_records_total{dir="tx",type="hello"} 1`,
		`cpsmon_wire_records_total{dir="rx",type="seq_batch"} 1`,
		"cpsmon_wire_crc_failures_total 1",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestCodecUninstrumentedIsFree checks the default path: with no
// registry installed the codec works and counts nothing.
func TestCodecUninstrumentedIsFree(t *testing.T) {
	Instrument(nil)
	var buf bytes.Buffer
	if err := Write(&buf, Ack{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatal(err)
	}
	if metrics.Load() != nil {
		t.Fatal("gate not nil after Instrument(nil)")
	}
}

// TestCodecMetricsUnknownType reads records whose type byte no record
// uses — 0x00 (the 5-byte handshake 01 00 00 00 00), each retired type
// and 0xFF — through an instrumented codec. Each must fail as an
// unknown type and be counted under type="unknown", never reach a
// missing counter.
func TestCodecMetricsUnknownType(t *testing.T) {
	reg := obs.NewRegistry()
	Instrument(reg)
	defer Instrument(nil)

	typs := []byte{0x00, 0x02, 0x03, 0x04, 0xFF}
	for _, typ := range typs {
		_, err := Read(bytes.NewReader([]byte{1, 0, 0, 0, typ}))
		var me *MalformedError
		if !errors.As(err, &me) || !strings.Contains(err.Error(), "unknown record type") {
			t.Errorf("type 0x%02X: err = %v, want a malformed unknown-type error", typ, err)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`cpsmon_wire_records_total{dir="rx",type="unknown"} 5`,
		`cpsmon_wire_bytes_total{dir="rx",type="unknown"} 25`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

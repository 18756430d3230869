package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/can"
)

// sampleRecords returns one populated instance of every record type.
func sampleRecords() []Record {
	return []Record{
		Hello{Version: Version, Vehicle: "veh-042", Spec: "strict"},
		Hello{}, // all-zero
		Event{Kind: EventBegin, Rule: "Rule1", Time: 200 * time.Millisecond},
		Event{
			Kind: EventEnd, Rule: "Headway", Time: 48 * time.Second,
			StartStep: 1220, EndStep: 1602,
			Start: 36610 * time.Millisecond, End: 48 * time.Second,
			Peak: 3.75, Msg: "not recovered", Class: 1,
		},
		Event{Kind: EventEnd, Rule: "NaNPeak", Peak: math.Inf(1)},
		Verdict{},
		Verdict{
			Rules: []RuleVerdict{
				{Rule: "Rule0", Violated: false},
				{Rule: "Rule1", Violated: true, Violations: 3, Real: 1, Transient: 2},
			},
			FramesIngested: 100000, FramesDropped: 12, FramesRejected: 1,
		},
		Verdict{
			Rules:          []RuleVerdict{{Rule: "Rule0", Violated: true, Violations: 1}},
			FramesIngested: 64,
			SpecEpoch:      3,
		},
		Error{Msg: "unknown spec \"plant\""},
		SeqBatch{Seq: 1},
		SeqBatch{Seq: 42, Frames: []can.Frame{
			{Time: 30 * time.Millisecond, ID: 0x101, Data: [8]byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Time: 60 * time.Millisecond, ID: 0x205, Data: [8]byte{0xFF}},
		}},
		Ack{Seq: 41},
		Resume{Version: Version, Token: 0xFEEDFACE, LastEventSeq: 17},
		Resume{Version: Version, Token: 0xFEEDFACE, LastEventSeq: 17, Epoch: 3},
		SessionGrant{Session: 9, Token: 0xFEEDFACE, AckSeq: 41},
		SessionGrant{Session: 9, Token: 0xFEEDFACE, AckSeq: 41, Epoch: 3},
		SeqEvent{Seq: 18, Event: Event{Kind: EventBegin, Rule: "Rule1", Time: 200 * time.Millisecond}},
		SeqEvent{Seq: 19, Event: Event{
			Kind: EventGap, Time: 2 * time.Second,
			Start: time.Second, End: 2 * time.Second, Msg: "bus silence",
		}},
		FinishSeq{Seq: 42},
		VerdictSeq{EventSeq: 19, Verdict: Verdict{
			Rules:          []RuleVerdict{{Rule: "Rule1", Violated: true, Violations: 1, Real: 1}},
			FramesIngested: 12,
		}},
		VerdictSeq{EventSeq: 20, Verdict: Verdict{
			Rules:          []RuleVerdict{{Rule: "Rule1", Violated: false}},
			FramesIngested: 12, SpecEpoch: 2,
		}},
	}
}

func TestRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		buf := Marshal(rec)
		got, err := Read(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%T: Read: %v", rec, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", rec, got, rec)
		}
	}
}

func TestRoundTripStream(t *testing.T) {
	// All records back to back through one reader, as on a socket.
	var buf []byte
	recs := sampleRecords()
	for _, rec := range recs {
		buf = Append(buf, rec)
	}
	r := bytes.NewReader(buf)
	for i, want := range recs {
		got, err := Read(r)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("record %d: got %+v want %+v", i, got, want)
		}
	}
	if _, err := Read(r); err != io.EOF {
		t.Errorf("after last record: err = %v, want io.EOF", err)
	}
}

// TestGoldenBytes pins the exact on-wire encoding of each record type.
// If this test fails the wire format has drifted: either revert the
// change or bump Version and update the pins deliberately.
func TestGoldenBytes(t *testing.T) {
	cases := []struct {
		name string
		rec  Record
		hex  string
	}{
		{
			"hello", Hello{Version: 1, Vehicle: "v1", Spec: "strict"},
			"0f000000" + "01" + "0100" + "02007631" + "0600737472696374",
		},
		{
			"event-begin", Event{Kind: EventBegin, Rule: "R", Time: time.Millisecond},
			"30000000" + "05" + "01" + "010052" + "40420f0000000000" +
				"00000000" + "00000000" + "0000000000000000" + "0000000000000000" +
				"0000000000000000" + "0000" + "00",
		},
		{
			"event-end",
			Event{Kind: EventEnd, Rule: "R", Time: 2 * time.Millisecond, StartStep: 1, EndStep: 2,
				Start: time.Millisecond, End: 2 * time.Millisecond, Peak: 1.5, Msg: "m", Class: 3},
			"31000000" + "05" + "02" + "010052" + "80841e0000000000" +
				"01000000" + "02000000" + "40420f0000000000" + "80841e0000000000" +
				"000000000000f83f" + "01006d" + "03",
		},
		{
			"verdict",
			Verdict{Rules: []RuleVerdict{{Rule: "R", Violated: true, Violations: 2, Real: 1, Transient: 1}},
				FramesIngested: 5, FramesDropped: 1, FramesRejected: 2},
			"31000000" + "06" + "01000000" +
				"010052" + "01" + "02000000" + "01000000" + "01000000" + "00000000" +
				"0500000000000000" + "0100000000000000" + "0200000000000000",
		},
		{
			// A nonzero spec epoch appends one trailing u64; the
			// zero-epoch "verdict" case above pins that the epoch-less
			// layout is still produced byte for byte when no registry is
			// stamping epochs.
			"verdict-epoch",
			Verdict{Rules: []RuleVerdict{{Rule: "R", Violated: true, Violations: 2, Real: 1, Transient: 1}},
				FramesIngested: 5, FramesDropped: 1, FramesRejected: 2, SpecEpoch: 7},
			"39000000" + "06" + "01000000" +
				"010052" + "01" + "02000000" + "01000000" + "01000000" + "00000000" +
				"0500000000000000" + "0100000000000000" + "0200000000000000" +
				"0700000000000000",
		},
		{
			"error", Error{Msg: "no"},
			"05000000" + "07" + "02006e6f",
		},
		{
			"seqbatch",
			SeqBatch{Seq: 7, Frames: []can.Frame{{Time: 0x1122334455, ID: 0x305, Data: [8]byte{0xAA, 0, 0, 0, 0, 0, 0, 0xBB}}}},
			"25000000" + "08" + "0700000000000000" + "01000000" +
				"5544332211000000" + "05030000" + "aa000000000000bb" + "da8c481a",
		},
		{
			"ack", Ack{Seq: 0x0102030405060708},
			"0d000000" + "09" + "0807060504030201" + "eafc795d",
		},
		{
			"resume", Resume{Version: 3, Token: 0xDEADBEEF, LastEventSeq: 5, Epoch: 2},
			"1f000000" + "0a" + "0300" + "efbeadde00000000" + "0500000000000000" + "0200000000000000" + "0667b76c",
		},
		{
			"grant", SessionGrant{Session: 9, Token: 0xDEADBEEF, AckSeq: 4, Epoch: 2},
			"25000000" + "0b" + "0900000000000000" + "efbeadde00000000" + "0400000000000000" + "0200000000000000" + "4cd3c532",
		},
		{
			"seqevent", SeqEvent{Seq: 3, Event: Event{Kind: EventBegin, Rule: "R", Time: time.Millisecond}},
			"3c000000" + "0c" + "0300000000000000" + "01" + "010052" + "40420f0000000000" +
				"00000000" + "00000000" + "0000000000000000" + "0000000000000000" +
				"0000000000000000" + "0000" + "00" + "3059f055",
		},
		{
			"gapevent",
			SeqEvent{Seq: 4, Event: Event{Kind: EventGap, Time: 2 * time.Millisecond,
				Start: time.Millisecond, End: 2 * time.Millisecond, Msg: "bus silence"}},
			"46000000" + "0c" + "0400000000000000" + "03" + "0000" + "80841e0000000000" +
				"00000000" + "00000000" + "40420f0000000000" + "80841e0000000000" +
				"0000000000000000" + "0b006275732073696c656e6365" + "00" + "8dc5d249",
		},
		{
			"finishseq", FinishSeq{Seq: 12},
			"0d000000" + "0d" + "0c00000000000000" + "f808414a",
		},
		{
			"verdictseq",
			VerdictSeq{EventSeq: 6, Verdict: Verdict{
				Rules:          []RuleVerdict{{Rule: "R", Violated: true, Violations: 2, Real: 1, Transient: 1}},
				FramesIngested: 5, FramesDropped: 1, FramesRejected: 2}},
			"3d000000" + "0e" + "0600000000000000" + "01000000" +
				"010052" + "01" + "02000000" + "01000000" + "01000000" + "00000000" +
				"0500000000000000" + "0100000000000000" + "0200000000000000" + "2dacba79",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := hex.EncodeToString(Marshal(c.rec))
			if got != c.hex {
				t.Errorf("encoding drifted:\n got %s\nwant %s", got, c.hex)
			}
		})
	}
}

// TestVersion3CompatDecode pins stored verdicts: the archive and the
// session ledger hold verdicts in the Verdict encoding, and those
// written before spec epochs existed lack the trailing epoch field.
// Current decoders must accept these exact bytes with epoch zero, or a
// recovery or recheck over an older archive or ledger would fail.
func TestVersion3CompatDecode(t *testing.T) {
	cases := []struct {
		name string
		hex  string
		want Record
	}{
		{
			"verdict-v3",
			"31000000" + "06" + "01000000" +
				"010052" + "01" + "02000000" + "01000000" + "01000000" + "00000000" +
				"0500000000000000" + "0100000000000000" + "0200000000000000",
			Verdict{Rules: []RuleVerdict{{Rule: "R", Violated: true, Violations: 2, Real: 1, Transient: 1}},
				FramesIngested: 5, FramesDropped: 1, FramesRejected: 2},
		},
		{
			"verdictseq-v3",
			"3d000000" + "0e" + "0600000000000000" + "01000000" +
				"010052" + "01" + "02000000" + "01000000" + "01000000" + "00000000" +
				"0500000000000000" + "0100000000000000" + "0200000000000000" + "2dacba79",
			VerdictSeq{EventSeq: 6, Verdict: Verdict{
				Rules:          []RuleVerdict{{Rule: "R", Violated: true, Violations: 2, Real: 1, Transient: 1}},
				FramesIngested: 5, FramesDropped: 1, FramesRejected: 2}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			buf, err := hex.DecodeString(c.hex)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Read(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("Read: %v", err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("decoded %+v, want %+v", got, c.want)
			}
		})
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty record", []byte{0, 0, 0, 0}},
		{"oversized record", []byte{0xFF, 0xFF, 0xFF, 0xFF, typeFinishSeq}},
		{"truncated header", []byte{5, 0}},
		{"truncated body", []byte{10, 0, 0, 0, typeHello, 1}},
		{"unknown type", Marshal(recRaw{0x7E, nil})},
		{"type 0x00", Marshal(recRaw{0x00, nil})},
		{"type 0xFF", Marshal(recRaw{0xFF, nil})},
		// 0x02–0x04 were the retired unsequenced HelloAck, FrameBatch
		// and Finish records; their last golden encodings must now be
		// refused as unknown types.
		{"retired helloack", mustHex("09000000" + "02" + "0807060504030201")},
		{"retired framebatch", mustHex("19000000" + "03" + "01000000" + "5544332211000000" + "05030000" + "aa000000000000bb")},
		{"retired finish", mustHex("01000000" + "04")},
		{"hello truncated", Marshal(recRaw{typeHello, []byte{1}})},
		{"hello trailing", Marshal(recRaw{typeHello, []byte{1, 0, 0, 0, 0, 0, 0xAA}})},
		{"batch count mismatch", Marshal(recRaw{typeSeqBatch, crcPayload(typeSeqBatch,
			[]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3})})},
		{"batch absurd count", Marshal(recRaw{typeSeqBatch, crcPayload(typeSeqBatch,
			binary.LittleEndian.AppendUint32([]byte{1, 0, 0, 0, 0, 0, 0, 0}, MaxFrameCount+1))})},
		{"event bad kind", Marshal(recRaw{typeEvent, append([]byte{9, 0, 0}, make([]byte, 43)...)})},
		{"verdict absurd count", Marshal(recRaw{typeVerdict, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}})},
		{"finish trailing", Marshal(recRaw{typeFinishSeq, crcPayload(typeFinishSeq,
			[]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xAA})})},
		{"string overruns", Marshal(recRaw{typeError, []byte{0xFF, 0xFF, 'x'}})},
		{"seqbatch flipped bit", flipBit(Marshal(SeqBatch{Seq: 3, Frames: []can.Frame{{ID: 1}}}), 80)},
		{"seqbatch hostile count", Marshal(recRaw{typeSeqBatch, crcPayload(typeSeqBatch,
			[]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})})},
		{"ack short for checksum", Marshal(recRaw{typeAck, []byte{1, 2}})},
		{"ack bad checksum", Marshal(recRaw{typeAck, make([]byte, 12)})},
		{"grant truncated", Marshal(recRaw{typeSessionGrant, crcPayload(typeSessionGrant, []byte{9, 0})})},
		// The server epoch is a required field: the epoch-less Resume and
		// SessionGrant layouts, with valid checksums, are truncated.
		{"resume without epoch", mustHex("17000000" + "0a" + "0200" + "efbeadde00000000" + "0500000000000000" + "6e2d38b5")},
		{"grant without epoch", mustHex("1d000000" + "0b" + "0900000000000000" + "efbeadde00000000" + "0400000000000000" + "85ac929a")},
		{"verdictseq hostile count", Marshal(recRaw{typeVerdictSeq, crcPayload(typeVerdictSeq,
			[]byte{6, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})})},
		{"seqevent bad kind", Marshal(recRaw{typeSeqEvent, crcPayload(typeSeqEvent,
			append([]byte{0, 0, 0, 0, 0, 0, 0, 0, 9}, make([]byte, 45)...))})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if rec, err := Read(bytes.NewReader(c.buf)); err == nil {
				t.Errorf("decoded %+v, want error", rec)
			}
		})
	}
}

// mustHex decodes a hex test vector.
func mustHex(s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		panic(err)
	}
	return b
}

// recRaw emits an arbitrary (type, payload) pair for error-path tests.
type recRaw struct {
	typ     byte
	payload []byte
}

func (r recRaw) wireType() byte                  { return r.typ }
func (r recRaw) appendPayload(buf []byte) []byte { return append(buf, r.payload...) }

// crcPayload seals a hand-built checksummed payload with its correct checksum,
// so the decode error under test is the field failure, not the CRC.
func crcPayload(typ byte, payload []byte) []byte {
	sealed := appendCRC(append([]byte{}, payload...), 0, typ)
	return sealed
}

// flipBit returns a copy of buf with one bit inverted.
func flipBit(buf []byte, bit int) []byte {
	out := append([]byte{}, buf...)
	out[bit/8] ^= 1 << (bit % 8)
	return out
}

// TestMalformedClassification pins the quarantine contract: a record
// whose framing held but whose payload is bad surfaces from Read as a
// *MalformedError with the stream left at the next record boundary,
// while framing-level failures do not.
func TestMalformedClassification(t *testing.T) {
	good := Marshal(Ack{Seq: 7})
	bad := flipBit(Marshal(SeqBatch{Seq: 3, Frames: []can.Frame{{ID: 1}}}), 88)
	r := bytes.NewReader(append(append([]byte{}, bad...), good...))

	_, err := Read(r)
	var mf *MalformedError
	if !errors.As(err, &mf) {
		t.Fatalf("corrupted payload: err = %v, want *MalformedError", err)
	}
	if mf.Type != typeSeqBatch {
		t.Errorf("malformed type = 0x%02X, want 0x%02X", mf.Type, typeSeqBatch)
	}
	// The reader consumed exactly the bad record: the next read yields
	// the intact ack.
	rec, err := Read(r)
	if err != nil {
		t.Fatalf("record after quarantine: %v", err)
	}
	if ack, ok := rec.(Ack); !ok || ack.Seq != 7 {
		t.Errorf("record after quarantine = %+v, want Ack{7}", rec)
	}

	// Framing-level failures are not malformed records: an oversized
	// length prefix and a truncated body stay unwrapped.
	for _, buf := range [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, typeFinishSeq},
		Marshal(Ack{Seq: 7})[:6],
	} {
		_, err := Read(bytes.NewReader(buf))
		if err == nil || errors.As(err, &mf) {
			t.Errorf("framing failure %x: err = %v, want a non-malformed error", buf, err)
		}
	}
}

func TestStringTruncation(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16+5)
	rec, err := Read(bytes.NewReader(Marshal(Error{Msg: long})))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got := rec.(Error).Msg; len(got) != math.MaxUint16 {
		t.Errorf("oversized string encoded to %d bytes, want %d", len(got), math.MaxUint16)
	}
}

func TestErrorErr(t *testing.T) {
	if err := (Error{Msg: "boom"}).Err(); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Err() = %v", err)
	}
}

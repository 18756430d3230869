package wire

import (
	"bytes"
	"io"
	"testing"

	"cpsmon/internal/can"
	"cpsmon/internal/obs"
)

// FuzzDecode exercises the record decoder with arbitrary byte streams:
// it must return a record or an error, never panic, and any record that
// decodes must survive an encode/decode round trip bit-exactly. The
// seed corpus covers every record type plus framing edge cases; `go
// test` runs the seeds, and `go test -fuzz=FuzzDecode ./internal/wire`
// explores further. This mirrors the speclang FuzzParse idiom.
// Records are read with codec metrics on, as monitord reads them.
func FuzzDecode(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(Marshal(rec))
	}
	var stream []byte
	for _, rec := range sampleRecords() {
		stream = Append(stream, rec)
	}
	f.Add(stream)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{1, 0, 0, 0, 0x7F})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, typeFinishSeq})
	f.Add(Marshal(recRaw{typeVerdict, []byte{0xFF, 0xFF, 0xFF, 0xFF}}))
	// Type bytes no record uses, retired ones included: unknown-type
	// rejection and the metrics' "unknown" series.
	for _, typ := range []byte{0x00, 0x02, 0x03, 0x04, 0xFF} {
		f.Add(Marshal(recRaw{typ, nil}))
	}
	// Hostile element counts inside checksummed records: the count
	// field lies but the CRC is valid, so the decoder must reject on
	// the count bound, not the checksum.
	f.Add(Marshal(recRaw{typeSeqBatch, crcPayload(typeSeqBatch,
		[]byte{1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})}))
	f.Add(Marshal(recRaw{typeVerdictSeq, crcPayload(typeVerdictSeq,
		[]byte{6, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0})}))
	// A checksummed record with a flipped bit: the rejection path.
	f.Add(flipBit(Marshal(SeqBatch{Seq: 9, Frames: []can.Frame{{ID: 2}}}), 90))
	f.Add(Marshal(recRaw{typeAck, []byte{1, 2}}))

	// The body runs instrumented, as monitord's codec does, so the
	// fuzzer covers the per-type counting on every record read.
	Instrument(obs.NewRegistry())
	defer Instrument(nil)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			rec, err := Read(r)
			if err != nil {
				break // corrupt input is rejected, never a panic
			}
			// Anything that decodes must re-encode canonically. The
			// comparison is on the encoded bytes (not DeepEqual) so NaN
			// peaks with arbitrary payload bits round-trip too.
			buf := Marshal(rec)
			again, err := Read(bytes.NewReader(buf))
			if err != nil {
				t.Fatalf("re-decode of %+v failed: %v", rec, err)
			}
			if !bytes.Equal(buf, Marshal(again)) {
				t.Fatalf("round trip drift:\n first %+v\n again %+v", rec, again)
			}
		}
		// The reader must consume record-by-record: a second pass over
		// the same bytes behaves identically (no internal state).
		r2 := bytes.NewReader(data)
		for {
			if _, err := Read(r2); err != nil {
				if err != io.EOF {
					_ = err
				}
				break
			}
		}
	})
}

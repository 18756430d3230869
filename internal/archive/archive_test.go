package archive

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/wire"
)

// mkFrames builds n frames starting at start, one per millisecond,
// with a recognizable payload.
func mkFrames(n int, start time.Duration) []can.Frame {
	out := make([]can.Frame, n)
	for i := range out {
		out[i].Time = start + time.Duration(i)*time.Millisecond
		out[i].ID = 0x100 + uint32(i%4)
		out[i].Data[0] = byte(i)
		out[i].Data[7] = byte(i >> 8)
	}
	return out
}

func testEvent(rule string, at time.Duration) wire.Event {
	return wire.Event{
		Kind: wire.EventEnd, Rule: rule, Time: at,
		StartStep: 10, EndStep: 12, Start: at - 2*time.Millisecond, End: at,
		Peak: 1.5, Msg: "test clause", Class: 1,
	}
}

func testVerdict(violations uint32) wire.Verdict {
	return wire.Verdict{
		Rules: []wire.RuleVerdict{{
			Rule: "Rule0", Violated: violations > 0, Violations: violations, Real: violations,
		}},
		FramesIngested: 100,
	}
}

// collect drains an iterator, failing the test on iteration error.
// Frames are copied out of the iterator's scratch.
func collect(t *testing.T, it *Iterator) []Record {
	t.Helper()
	defer it.Close()
	var out []Record
	for it.Next() {
		r := *it.Record()
		r.Frames = append([]can.Frame(nil), r.Frames...)
		out = append(out, r)
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterate: %v", err)
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	frames := mkFrames(50, 0)
	ev := testEvent("Rule0", 30*time.Millisecond)
	v := testVerdict(2)
	if err := w.ArchiveFrames(7, "veh-a", frames); err != nil {
		t.Fatalf("ArchiveFrames: %v", err)
	}
	if err := w.ArchiveEvent(7, "veh-a", ev); err != nil {
		t.Fatalf("ArchiveEvent: %v", err)
	}
	if err := w.ArchiveVerdict(7, "veh-a", v); err != nil {
		t.Fatalf("ArchiveVerdict: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	segs := cat.Segments()
	if len(segs) != 1 || !segs[0].Sealed || segs[0].Records != 3 {
		t.Fatalf("unexpected segments: %+v", segs)
	}
	if segs[0].FirstSeq != 1 || segs[0].LastSeq != 3 {
		t.Fatalf("sequence range = [%d, %d], want [1, 3]", segs[0].FirstSeq, segs[0].LastSeq)
	}
	if segs[0].TMax != frames[len(frames)-1].Time {
		t.Fatalf("TMax = %v, want %v", segs[0].TMax, frames[len(frames)-1].Time)
	}

	recs := collect(t, cat.Iter(Query{}))
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Kind != KindFrames || recs[1].Kind != KindEvent || recs[2].Kind != KindVerdict {
		t.Fatalf("record kinds = %v %v %v", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Session != 7 || r.Vehicle != "veh-a" {
			t.Fatalf("record %d envelope = %+v", i, r)
		}
	}
	if len(recs[0].Frames) != len(frames) {
		t.Fatalf("got %d frames, want %d", len(recs[0].Frames), len(frames))
	}
	for i := range frames {
		if recs[0].Frames[i] != frames[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, recs[0].Frames[i], frames[i])
		}
	}
	if !bytes.Equal(wire.Marshal(recs[1].Event), wire.Marshal(ev)) {
		t.Fatalf("event round trip: got %+v, want %+v", recs[1].Event, ev)
	}
	if !bytes.Equal(wire.Marshal(recs[2].Verdict), wire.Marshal(v)) {
		t.Fatalf("verdict round trip: got %+v, want %+v", recs[2].Verdict, v)
	}
}

func TestRotationSealsAndSequences(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	const runs = 40
	for i := 0; i < runs; i++ {
		if err := w.ArchiveFrames(uint64(i%3+1), "veh", mkFrames(20, time.Duration(i)*time.Second)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	segs := cat.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	var total uint32
	for i, s := range segs {
		if !s.Sealed {
			t.Fatalf("segment %d not sealed: %+v", i, s)
		}
		if s.Number != uint64(i+1) {
			t.Fatalf("segment %d numbered %d", i, s.Number)
		}
		if i > 0 && s.FirstSeq != segs[i-1].LastSeq+1 {
			t.Fatalf("sequence gap between segments %d and %d: %+v", i-1, i, segs)
		}
		total += s.Records
	}
	if total != runs {
		t.Fatalf("got %d records across segments, want %d", total, runs)
	}

	// Reopening continues the sequence and the segment numbering.
	w2, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got := w2.NextSeq(); got != runs+1 {
		t.Fatalf("NextSeq after reopen = %d, want %d", got, runs+1)
	}
	if err := w2.ArchiveFrames(9, "veh", mkFrames(1, 0)); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := w2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cat2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	if got := cat2.Records(); got != runs+1 {
		t.Fatalf("records after reopen = %d, want %d", got, runs+1)
	}
}

func TestQueryFilters(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	// Session 1 / veh-a: frames over [0, 49ms] and [1s, 1.049s].
	w.ArchiveFrames(1, "veh-a", mkFrames(50, 0))
	w.ArchiveFrames(1, "veh-a", mkFrames(50, time.Second))
	w.ArchiveEvent(1, "veh-a", testEvent("Rule0", 25*time.Millisecond))
	w.ArchiveVerdict(1, "veh-a", testVerdict(1))
	// Session 2 / veh-b.
	w.ArchiveFrames(2, "veh-b", mkFrames(10, 0))
	w.ArchiveVerdict(2, "veh-b", testVerdict(0))
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}

	t.Run("vehicle", func(t *testing.T) {
		recs := collect(t, cat.Iter(Query{Vehicle: "veh-b"}))
		if len(recs) != 2 {
			t.Fatalf("got %d records, want 2", len(recs))
		}
		for _, r := range recs {
			if r.Session != 2 {
				t.Fatalf("leaked session %d", r.Session)
			}
		}
	})
	t.Run("session", func(t *testing.T) {
		recs := collect(t, cat.Iter(Query{Session: 1}))
		if len(recs) != 4 {
			t.Fatalf("got %d records, want 4", len(recs))
		}
	})
	t.Run("kinds", func(t *testing.T) {
		recs := collect(t, cat.Iter(Query{Kinds: KindVerdict}))
		if len(recs) != 2 {
			t.Fatalf("got %d verdicts, want 2", len(recs))
		}
	})
	t.Run("time-window", func(t *testing.T) {
		// [10ms, 20ms]: clips session 1's first run; session 2's run
		// (0..9ms) and session 1's second run (1s..) fall outside;
		// verdicts always pass.
		recs := collect(t, cat.Iter(Query{From: 10 * time.Millisecond, To: 20 * time.Millisecond}))
		var frames, events, verdicts int
		for _, r := range recs {
			switch r.Kind {
			case KindFrames:
				frames++
				if len(r.Frames) != 11 {
					t.Fatalf("window kept %d frames, want 11", len(r.Frames))
				}
				for _, f := range r.Frames {
					if f.Time < 10*time.Millisecond || f.Time > 20*time.Millisecond {
						t.Fatalf("frame at %v escaped the window", f.Time)
					}
				}
			case KindEvent:
				events++
			case KindVerdict:
				verdicts++
			}
		}
		if frames != 1 || events != 0 || verdicts != 2 {
			t.Fatalf("window selected frames=%d events=%d verdicts=%d", frames, events, verdicts)
		}
	})
	t.Run("unbounded-from", func(t *testing.T) {
		recs := collect(t, cat.Iter(Query{From: time.Second}))
		var sawLate bool
		for _, r := range recs {
			if r.Kind == KindFrames {
				if r.TMax < time.Second {
					t.Fatalf("early record %+v escaped From filter", r)
				}
				sawLate = true
			}
		}
		if !sawLate {
			t.Fatal("From filter dropped the late run")
		}
	})
}

// TestTimeWindowAcrossSegments pins the segment-pruning fast path: a
// multi-segment archive queried over narrow windows must return
// exactly what an unpruned full scan filtered by the same predicate
// returns — pruning through footer time spans may skip file opens,
// never records. Verdict-selecting queries bypass the prune (verdicts
// are exempt from the window), which the second half asserts.
func TestTimeWindowAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	// 40 runs of 50 frames each at 50ms strides: rotation at the
	// minimum segment size spreads them over several sealed segments
	// with distinct time spans.
	const runs = 40
	for i := 0; i < runs; i++ {
		if err := w.ArchiveFrames(1, "veh-seg", mkFrames(50, time.Duration(i)*50*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.ArchiveVerdict(1, "veh-seg", testVerdict(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	if len(cat.Segments()) < 3 {
		t.Fatalf("fixture built only %d segments; pruning untested", len(cat.Segments()))
	}

	full := collect(t, cat.Iter(Query{Kinds: KindFrames}))
	for _, win := range []struct{ from, to time.Duration }{
		{0, 49 * time.Millisecond},                        // first segment only
		{900 * time.Millisecond, 1100 * time.Millisecond}, // middle
		{1900 * time.Millisecond, 10 * time.Second},       // tail
		{time.Hour, 2 * time.Hour},                        // past the end: nothing
	} {
		got := collect(t, cat.Iter(Query{Kinds: KindFrames, From: win.from, To: win.to}))
		var want []Record
		for _, r := range full {
			if r.TMax < win.from || (win.to > 0 && r.TMin > win.to) {
				continue
			}
			want = append(want, r)
		}
		if len(got) != len(want) {
			t.Fatalf("window [%v,%v]: got %d records, full-scan filter gives %d", win.from, win.to, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("window [%v,%v]: record %d seq %d, want %d", win.from, win.to, i, got[i].Seq, want[i].Seq)
			}
		}
	}

	// The verdict lives in the last segment with a late time span, but
	// must still surface for a window over the start of the capture.
	recs := collect(t, cat.Iter(Query{From: 0, To: 49 * time.Millisecond}))
	var verdicts int
	for _, r := range recs {
		if r.Kind == KindVerdict {
			verdicts++
		}
	}
	if verdicts != 1 {
		t.Fatalf("early window surfaced %d verdicts, want 1 (verdicts are window-exempt)", verdicts)
	}
}

func TestFlushMakesPartReadable(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	defer w.Close()
	w.ArchiveFrames(1, "veh", mkFrames(20, 0))
	w.ArchiveVerdict(1, "veh", testVerdict(0))
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	segs := cat.Segments()
	if len(segs) != 1 || segs[0].Sealed || segs[0].Records != 2 {
		t.Fatalf("live part not readable: %+v", segs)
	}
	if got := len(collect(t, cat.Iter(Query{}))); got != 2 {
		t.Fatalf("got %d records from live part, want 2", got)
	}
}

func TestRetentionSweep(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	for i := 0; i < 40; i++ {
		w.ArchiveFrames(1, "veh", mkFrames(20, time.Duration(i)*time.Second))
	}
	w.Flush()
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sealed int
	old := time.Now().Add(-2 * time.Hour)
	for _, sf := range names {
		if !sf.sealed {
			continue
		}
		sealed++
		if err := os.Chtimes(filepath.Join(dir, sf.name), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if sealed == 0 {
		t.Fatal("test needs sealed segments")
	}
	removed, err := w.SweepRetention(time.Hour)
	if err != nil {
		t.Fatalf("SweepRetention: %v", err)
	}
	if removed != sealed {
		t.Fatalf("swept %d segments, want %d", removed, sealed)
	}
	// The active part survives and the archive still opens.
	if _, err := OpenCatalog(dir); err != nil {
		t.Fatalf("OpenCatalog after sweep: %v", err)
	}
	if n, err := w.SweepRetention(time.Hour); err != nil || n != 0 {
		t.Fatalf("second sweep = (%d, %v), want (0, nil)", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close after sweep: %v", err)
	}
}

// TestArchiveFramesAllocationFree pins the acceptance criterion: the
// frames append path performs zero allocations per record in steady
// state.
func TestArchiveFramesAllocationFree(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	defer w.Close()
	frames := mkFrames(256, 0)
	// Warm up: first append opens the segment and grows the scratch.
	for i := 0; i < 4; i++ {
		if err := w.ArchiveFrames(1, "veh-alloc", frames); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := w.ArchiveFrames(1, "veh-alloc", frames); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("ArchiveFrames allocates %.1f times per record, want 0", avg)
	}
}

func TestClosedWriterRefusesAppends(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.ArchiveFrames(1, "veh", mkFrames(1, 0)); err != ErrClosed {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	// A writer that never appended leaves an empty directory.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("empty writer left %d files behind", len(ents))
	}
}

// buildInterleavedArchive writes a multi-segment archive with nSessions
// sessions interleaved chunk by chunk — the shape a fleet server
// produces — plus one event and one verdict per session. The tiny
// segment threshold forces frequent rotation.
func buildInterleavedArchive(t testing.TB, dir string, nSessions, rounds int) {
	t.Helper()
	w, err := OpenWriter(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	for round := 0; round < rounds; round++ {
		for s := 1; s <= nSessions; s++ {
			start := time.Duration(round*nSessions+s) * 40 * time.Millisecond
			frames := mkFrames(20+(s%5)*7, start)
			veh := fmt.Sprintf("veh-%d", s%4)
			if err := w.ArchiveFrames(uint64(s), veh, frames); err != nil {
				t.Fatalf("ArchiveFrames: %v", err)
			}
			if round == rounds/2 {
				if err := w.ArchiveEvent(uint64(s), veh, testEvent("Rule1", start)); err != nil {
					t.Fatalf("ArchiveEvent: %v", err)
				}
			}
		}
	}
	for s := 1; s <= nSessions; s++ {
		if err := w.ArchiveVerdict(uint64(s), fmt.Sprintf("veh-%d", s%4), testVerdict(uint32(s%3))); err != nil {
			t.Fatalf("ArchiveVerdict: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestIteratorCloseIdempotentMidIteration pins the documented Close
// contract for the sequential iterator: closing mid-iteration (current
// record in hand) is safe, closing twice is safe, and neither disturbs
// Err.
func TestIteratorCloseIdempotentMidIteration(t *testing.T) {
	dir := t.TempDir()
	buildInterleavedArchive(t, dir, 4, 4)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	it := cat.Iter(Query{})
	for i := 0; i < 3; i++ {
		if !it.Next() {
			t.Fatalf("Next %d = false before Close", i)
		}
	}
	rec := *it.Record()
	if err := it.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if it.Next() {
		t.Fatal("Next returned true after Close")
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
	}
	if rec.Seq == 0 {
		t.Fatal("record captured before Close lost its envelope")
	}
}

// corruptFramesCount rewrites the first frames record of the given
// segment file so its payload declares an absurd frame count, then
// re-checksums the record. The envelope stays valid — the corruption
// is only visible to the frames decoder, which must surface it as an
// iteration error (not silently abandon the segment).
func corruptFramesCount(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize)
	n := binary.LittleEndian.Uint32(raw[off : off+4])
	body := raw[off+4 : off+4+int64(n)]
	data := body[:len(body)-4]
	vlen := int(binary.LittleEndian.Uint16(data[33:35]))
	payload := data[envFixed+vlen:]
	binary.LittleEndian.PutUint32(payload[:4], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(body[len(body)-4:], crc32.Checksum(data, crcTable))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIterDecodeErrorSurfaces corrupts a frames payload in a middle
// segment (with a valid envelope checksum) and checks the iterator
// reports it as Err instead of skipping it, after serving every record
// of the segments before it.
func TestIterDecodeErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	buildInterleavedArchive(t, dir, 8, 8)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	segs := cat.Segments()
	if len(segs) < 3 {
		t.Fatalf("fixture built only %d segments", len(segs))
	}
	mid := len(segs) / 2
	corruptFramesCount(t, segs[mid].Path)
	var before int
	for _, seg := range segs[:mid] {
		before += int(seg.Records)
	}

	// Reopen: sealed segments are served through their footer, so the
	// record-level corruption stays invisible until decode time.
	cat, err = OpenCatalog(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	it := cat.Iter(Query{})
	defer it.Close()
	var served int
	for it.Next() {
		served++
	}
	if it.Err() == nil {
		t.Fatal("iterator missed the corrupted frames payload")
	}
	if served != before {
		t.Fatalf("served %d records before the error, want the %d of the earlier segments", served, before)
	}
}

// TestArchivesMaxWireVerdict pins the record bound against the largest
// record the fleet can hand the writer: a verdict that fills a wire
// record, under a vehicle name far longer than any real one, must
// archive and read back unchanged.
func TestArchivesMaxWireVerdict(t *testing.T) {
	// One encoded rule row costs ruleRow bytes plus its name.
	const target, ruleRow, name = wire.MaxRecordSize + 4, 19, 60_000
	v := wire.Verdict{FramesIngested: 37_500}
	for len(wire.Marshal(v))+ruleRow+name <= target-ruleRow {
		v.Rules = append(v.Rules, wire.RuleVerdict{Rule: strings.Repeat("r", name), Violated: true, Violations: 3, Real: 2, Transient: 1})
	}
	pad := target - len(wire.Marshal(v)) - ruleRow
	v.Rules = append(v.Rules, wire.RuleVerdict{Rule: strings.Repeat("p", pad)})
	if n := len(wire.Marshal(v)); n != target {
		t.Fatalf("verdict sized to %d bytes, want exactly the wire limit %d", n, target)
	}
	vehicle := strings.Repeat("v", 5000)

	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ArchiveVerdict(7, vehicle, v); err != nil {
		t.Fatalf("a verdict of exactly the wire limit was refused: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := collect(t, cat.Iter(Query{}))
	if len(recs) != 1 {
		t.Fatalf("read back %d records, want 1", len(recs))
	}
	if r := recs[0]; r.Kind != KindVerdict || r.Session != 7 || r.Vehicle != vehicle || !reflect.DeepEqual(r.Verdict, v) {
		t.Fatal("the max-size verdict did not read back equal")
	}
}

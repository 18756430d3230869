package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"testing"
	"time"

	"cpsmon/internal/can"
)

// buildInterleavedArchive writes a multi-segment archive with nSessions
// sessions interleaved chunk by chunk — the shape a fleet server
// produces — plus one event and one verdict per session. The tiny
// segment threshold forces frequent rotation so the parallel scanner
// has real fan-out to exercise.
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

// collectParallel drains a parallel iterator, copying frames out of the
// chunk arenas.
func collectParallel(t testing.TB, it *ParallelIterator) ([]Record, error) {
	t.Helper()
	defer it.Close()
	var out []Record
	for it.Next() {
		r := *it.Record()
		r.Frames = append([]can.Frame(nil), r.Frames...)
		out = append(out, r)
	}
	return out, it.Err()
}

// TestParallelIterDifferential pins the parallel scanner to the
// sequential iterator: identical record streams for a spread of
// queries, worker counts and prefetch windows.
func TestParallelIterDifferential(t *testing.T) {
	dir := t.TempDir()
	buildInterleavedArchive(t, dir, 16, 8)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	if len(cat.Segments()) < 4 {
		t.Fatalf("fixture built only %d segments; differential test needs fan-out", len(cat.Segments()))
	}

	queries := []Query{
		{},
		{Kinds: KindFrames | KindVerdict},
		{Session: 5},
		{Vehicle: "veh-3"},
		{From: 200 * time.Millisecond, To: 900 * time.Millisecond, Kinds: KindFrames},
	}
	for qi, q := range queries {
		want := collect(t, cat.Iter(q))
		for _, workers := range []int{1, 2, 4} {
			for _, ahead := range []int{0, 1} {
				got, err := collectParallel(t, cat.ParallelIter(q, ScanOptions{Workers: workers, Ahead: ahead}))
				if err != nil {
					t.Fatalf("query %d workers=%d ahead=%d: %v", qi, workers, ahead, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("query %d workers=%d ahead=%d: parallel stream diverges (%d vs %d records)",
						qi, workers, ahead, len(want), len(got))
				}
			}
		}
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

// TestParallelIterCloseMidIteration closes a parallel scan with chunks
// still in flight: Close must reap the workers (not hang), be
// idempotent, and leave subsequent Next calls reporting false.
func TestParallelIterCloseMidIteration(t *testing.T) {
	dir := t.TempDir()
	buildInterleavedArchive(t, dir, 8, 8)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	it := cat.ParallelIter(Query{}, ScanOptions{Workers: 4, Ahead: 1})
	for i := 0; i < 2; i++ {
		if !it.Next() {
			t.Fatalf("Next %d = false before Close", i)
		}
	}
	done := make(chan struct{})
	go func() { it.Close(); it.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung with chunks in flight")
	}
	if it.Next() {
		t.Fatal("Next returned true after Close")
	}
	if err := it.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
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

// TestParallelIterDecodeErrorSurfaces corrupts a frames payload in a
// middle segment (with a valid envelope checksum) and checks both
// iterators report the same error instead of hanging or skipping it,
// after serving every record that precedes the corruption.
func TestParallelIterDecodeErrorSurfaces(t *testing.T) {
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
	corruptFramesCount(t, segs[len(segs)/2].Path)

	// Reopen: sealed segments are served through their footer, so the
	// record-level corruption stays invisible until decode time.
	cat, err = OpenCatalog(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	seqIt := cat.Iter(Query{})
	var seqRecs int
	for seqIt.Next() {
		seqRecs++
	}
	seqErr := seqIt.Err()
	seqIt.Close()
	if seqErr == nil {
		t.Fatal("sequential iterator missed the corrupted frames payload")
	}

	done := make(chan struct{})
	var parRecs int
	var parErr error
	go func() {
		defer close(done)
		parRecs, parErr = func() (int, error) {
			it := cat.ParallelIter(Query{}, ScanOptions{Workers: 4})
			defer it.Close()
			n := 0
			for it.Next() {
				n++
			}
			return n, it.Err()
		}()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parallel iterator hung on decode error")
	}
	if parErr == nil || parErr.Error() != seqErr.Error() {
		t.Fatalf("parallel error = %v, want %v", parErr, seqErr)
	}
	if parRecs != seqRecs {
		t.Fatalf("parallel served %d records before the error, sequential %d", parRecs, seqRecs)
	}
}

// TestDecodeSegmentReservesArenaOnce pins the frame arena reservation:
// a segment's frames fit the arena reserved from its size, so decoding
// never regrows it, and a huge segment reserves no more than the cap.
func TestDecodeSegmentReservesArenaOnce(t *testing.T) {
	dir := t.TempDir()
	buildInterleavedArchive(t, dir, 16, 8)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	p := &ParallelIterator{}
	p.pool.New = func() any { return new(scanChunk) }
	it := &Iterator{vehicles: make(map[string]string)}
	for i, seg := range cat.segs {
		ch := p.decodeSegment(it, seg)
		if ch.err != nil {
			t.Fatalf("segment %d: %v", i, ch.err)
		}
		if want := seg.dataEnd / minFrameBytes; int64(cap(ch.frames)) != want {
			t.Errorf("segment %d: arena capacity %d, want the reservation %d", i, cap(ch.frames), want)
		}
	}
	huge := cat.segs[0]
	huge.dataEnd = 1 << 30
	if ch := p.decodeSegment(it, huge); cap(ch.frames) != maxReservedFrames {
		t.Errorf("1 GiB segment reserved %d frames, want the cap %d", cap(ch.frames), maxReservedFrames)
	}
}

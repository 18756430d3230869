package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

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

// TestDecodeSegmentReservesArenaOnce pins the frame arena: every
// record's frames lie within one fixed-size slab, so no slab is ever
// regrown and records never move; a chunk holds at most one slab more
// than its frames need, beside the tails left where a record did not
// fit; and a recycled chunk refills the slabs it already has.
func TestDecodeSegmentReservesArenaOnce(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: 256 << 10})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	for i := 0; i < 2000; i++ { // ~68k frames: segments of several slabs
		if err := w.ArchiveFrames(uint64(1+i%8), "veh", mkFrames(20+(i%5)*7, time.Duration(i)*40*time.Millisecond)); err != nil {
			t.Fatalf("ArchiveFrames: %v", err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	p := &ParallelIterator{free: make(chan *scanChunk, 1)}
	it := &Iterator{vehicles: make(map[string]string)}
	multi := false
	for i, seg := range cat.segs {
		ch := p.decodeSegment(it, seg)
		if ch.err != nil {
			t.Fatalf("segment %d: %v", i, ch.err)
		}
		frames, longest := 0, 0
		for _, rec := range ch.recs {
			frames += len(rec.Frames)
			longest = max(longest, len(rec.Frames))
			if len(rec.Frames) == 0 {
				continue
			}
			in := false
			for _, slab := range ch.slabs {
				lo, hi := &slab[:1][0], &slab[:cap(slab)][cap(slab)-1]
				first, last := &rec.Frames[0], &rec.Frames[len(rec.Frames)-1]
				if uintptr(unsafe.Pointer(first)) >= uintptr(unsafe.Pointer(lo)) && uintptr(unsafe.Pointer(last)) <= uintptr(unsafe.Pointer(hi)) {
					in = true
				}
			}
			if !in {
				t.Fatalf("segment %d: a record's frames lie outside every slab", i)
			}
		}
		held := 0
		for _, slab := range ch.slabs {
			if cap(slab) != slabFrames {
				t.Fatalf("segment %d: slab capacity %d, want %d", i, cap(slab), slabFrames)
			}
			held += cap(slab)
		}
		if slack := held - frames; slack > slabFrames+len(ch.slabs)*longest {
			t.Errorf("segment %d: %d frames in %d slabs, slack %d exceeds one slab plus tails", i, frames, len(ch.slabs), slack)
		}
		multi = multi || len(ch.slabs) > 1
		// Recycle: the next segment refills these slabs before adding any.
		slabs := append([][]can.Frame(nil), ch.slabs...)
		p.free <- ch
		next := p.decodeSegment(it, seg)
		for k := range min(len(slabs), len(next.slabs)) {
			if cap(slabs[k]) > 0 && &slabs[k][:1][0] != &next.slabs[k][:1][0] {
				t.Fatalf("segment %d: recycled chunk replaced slab %d", i, k)
			}
		}
		p.free <- next
		<-p.free
	}
	if !multi {
		t.Fatal("no segment spans two slabs; the fixture does not exercise the slab boundary")
	}
}

// TestParallelIterReleasesArenasOnClose pins that a finished iterator
// keeps no chunk arena alive: one collection after Close frees them.
// Chunks recycled through a sync.Pool would survive that collection in
// the runtime's pool registry, so a process running many short scans
// between collections held every scan's arenas at once.
func TestParallelIterReleasesArenasOnClose(t *testing.T) {
	dir := t.TempDir()
	buildInterleavedArchive(t, dir, 4, 4)
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	freed := make(chan struct{}, 64)
	chunks := 0
	func() {
		p := cat.ParallelIter(Query{}, ScanOptions{Workers: 2})
		defer p.Close()
		seen := make(map[*scanChunk]bool) // chunks recycle within a scan
		for p.Next() {
			if !seen[p.cur] {
				seen[p.cur] = true
				chunks++
				runtime.SetFinalizer(p.cur, func(*scanChunk) { freed <- struct{}{} })
			}
		}
		if err := p.Err(); err != nil {
			t.Fatalf("scan: %v", err)
		}
	}()
	if chunks < 2 {
		t.Fatalf("scan used %d chunks; the archive should span several segments", chunks)
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(2 * time.Second):
		t.Fatal("no chunk arena was freed by the first collection after Close")
	}
}

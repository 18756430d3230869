package archive

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/faultnet"
)

// buildTornDir writes an archive with several sealed segments plus an
// active .part holding flushed records (the append that seals a
// segment lands in the fresh part, so the part holds extra+1 records),
// then abandons the writer without Close — the on-disk state after a
// crash. Returns the directory, the .part path, the record count in
// sealed segments, and the record count in the part.
func buildTornDir(t *testing.T, extra int) (dir, part string, sealedRecs uint64, partRecs int) {
	t.Helper()
	dir = t.TempDir()
	w, err := OpenWriter(dir, Options{SegmentBytes: minSegmentBytes})
	if err != nil {
		t.Fatalf("OpenWriter: %v", err)
	}
	// Fill until at least two segments have sealed.
	i := 0
	for {
		names, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		var sealed int
		for _, sf := range names {
			if sf.sealed {
				sealed++
			}
		}
		if sealed >= 2 {
			break
		}
		if err := w.ArchiveFrames(1, "veh", mkFrames(20, time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
		i++
	}
	// Land extra more records in the fresh active segment.
	for j := 0; j < extra; j++ {
		if err := w.ArchiveFrames(2, "veh", mkFrames(5, time.Duration(i+j)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: drop the writer on the floor. (The *os.File leaks for the
	// test's duration; the process exit reclaims it.)
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sf := range names {
		p := filepath.Join(dir, sf.name)
		if !sf.sealed {
			part = p
			continue
		}
		seg, err := openSegment(p, true)
		if err != nil {
			t.Fatalf("sealed segment unreadable: %v", err)
		}
		sealedRecs += uint64(seg.info.Records)
	}
	if part == "" {
		t.Fatal("expected an active .part")
	}
	sum, err := scanSegment(part)
	if err != nil {
		t.Fatal(err)
	}
	return dir, part, sealedRecs, int(sum.count)
}

// damage mutates the .part file to simulate a torn or corrupted tail.
type damage struct {
	name string
	// apply damages the file and returns how many of the part's records
	// must still be served afterwards (-1 for "any prefix, catalog just
	// must not fail or serve garbage").
	apply func(t *testing.T, path string, partRecs int) int
}

func truncateTo(t *testing.T, path string, size int64) {
	t.Helper()
	if err := os.Truncate(path, size); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// recordOffsets scans the part and returns each valid record's start
// offset plus the end of the valid region.
func recordOffsets(t *testing.T, path string) (offs []int64, end int64) {
	t.Helper()
	sum, err := scanSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-derive offsets by walking lengths.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(headerSize)
	for off < sum.validEnd {
		offs = append(offs, off)
		n := int64(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 4 + n
	}
	return offs, sum.validEnd
}

var damages = []damage{
	{"truncate-mid-last-record", func(t *testing.T, path string, partRecs int) int {
		offs, end := recordOffsets(t, path)
		truncateTo(t, path, offs[len(offs)-1]+(end-offs[len(offs)-1])/2)
		return partRecs - 1
	}},
	{"truncate-mid-length-prefix", func(t *testing.T, path string, partRecs int) int {
		offs, _ := recordOffsets(t, path)
		truncateTo(t, path, offs[len(offs)-1]+2)
		return partRecs - 1
	}},
	{"truncate-exact-record-boundary", func(t *testing.T, path string, partRecs int) int {
		offs, _ := recordOffsets(t, path)
		truncateTo(t, path, offs[len(offs)-1])
		return partRecs - 1
	}},
	{"truncate-to-header-only", func(t *testing.T, path string, partRecs int) int {
		truncateTo(t, path, headerSize)
		return 0
	}},
	{"truncate-mid-header", func(t *testing.T, path string, partRecs int) int {
		truncateTo(t, path, headerSize/2)
		return 0
	}},
	{"bitflip-last-record-payload", func(t *testing.T, path string, partRecs int) int {
		offs, end := recordOffsets(t, path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		mid := offs[len(offs)-1] + (end-offs[len(offs)-1])/2
		faultnet.CorruptSpan(data, int(mid), 4, 0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return partRecs - 1
	}},
	{"bitflip-last-record-length", func(t *testing.T, path string, partRecs int) int {
		offs, _ := recordOffsets(t, path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		faultnet.CorruptSpan(data, int(offs[len(offs)-1]), 4, 0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return partRecs - 1
	}},
	{"bitflip-header-magic", func(t *testing.T, path string, partRecs int) int {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		faultnet.CorruptSpan(data, 0, 8, 0)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return 0
	}},
	{"garbage-appended-after-tail", func(t *testing.T, path string, partRecs int) int {
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		junk := make([]byte, 512)
		faultnet.CorruptSpan(junk, 0, len(junk), 0x5F)
		if _, err := f.Write(junk); err != nil {
			t.Fatal(err)
		}
		f.Close()
		return partRecs
	}},
}

// TestTornPartRecovery is the satellite's table test: every flavor of
// torn or bit-flipped active segment must leave the sealed segments
// fully intact — the catalog serves them, and writer recovery seals the
// surviving part prefix without losing a closed record.
func TestTornPartRecovery(t *testing.T) {
	for _, d := range damages {
		t.Run(d.name, func(t *testing.T) {
			dir, part, sealedRecs, partRecs := buildTornDir(t, 5)
			wantPart := d.apply(t, part, partRecs)

			// Phase 1: a read-only catalog over the damaged directory.
			cat, err := OpenCatalog(dir)
			if err != nil {
				t.Fatalf("OpenCatalog over damaged dir: %v", err)
			}
			var gotSealed, gotPart uint64
			for _, s := range cat.Segments() {
				if s.Sealed {
					gotSealed += uint64(s.Records)
				} else {
					gotPart += uint64(s.Records)
				}
			}
			if gotSealed != sealedRecs {
				t.Fatalf("catalog lost sealed records: got %d, want %d", gotSealed, sealedRecs)
			}
			if gotPart != uint64(wantPart) {
				t.Fatalf("catalog served %d part records, want %d", gotPart, wantPart)
			}
			// The catalog never modifies files.
			preSize := fileSize(t, part)

			// Every sealed + surviving record iterates cleanly.
			n := uint64(len(collect(t, cat.Iter(Query{}))))
			if n != gotSealed+gotPart {
				t.Fatalf("iterated %d records, want %d", n, gotSealed+gotPart)
			}
			if got := fileSize(t, part); got != preSize {
				t.Fatalf("catalog modified the part: %d -> %d bytes", preSize, got)
			}

			// Phase 2: writer recovery seals the survivors and appending
			// continues.
			w, err := OpenWriter(dir, Options{})
			if err != nil {
				t.Fatalf("OpenWriter recovery: %v", err)
			}
			if err := w.ArchiveFrames(3, "veh", mkFrames(1, 0)); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			cat2, err := OpenCatalog(dir)
			if err != nil {
				t.Fatalf("OpenCatalog after recovery: %v", err)
			}
			for _, s := range cat2.Segments() {
				if !s.Sealed || s.Scanned || s.Torn || s.Damaged {
					t.Fatalf("segment not cleanly sealed after recovery: %+v", s)
				}
			}
			if got := cat2.Records(); got != sealedRecs+uint64(wantPart)+1 {
				t.Fatalf("post-recovery records = %d, want %d", got, sealedRecs+uint64(wantPart)+1)
			}
		})
	}
}

// TestSealedFooterCorruptionFallsBackToScan corrupts a sealed
// segment's footer: the fast path fails validation and the catalog
// rebuilds the segment by scan, serving every record.
func TestSealedFooterCorruptionFallsBackToScan(t *testing.T) {
	dir, _, sealedRecs, partRecs := buildTornDir(t, 0)
	total := sealedRecs + uint64(partRecs)
	names, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sealedPath string
	for _, sf := range names {
		if sf.sealed {
			sealedPath = filepath.Join(dir, sf.name)
			break
		}
	}
	data, err := os.ReadFile(sealedPath)
	if err != nil {
		t.Fatal(err)
	}
	// Smash the footer checksum and magic.
	faultnet.CorruptSpan(data, len(data)-12, 12, 0)
	if err := os.WriteFile(sealedPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cat, err := OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	var got uint64
	for _, s := range cat.Segments() {
		if s.Path == sealedPath {
			if !s.Scanned {
				t.Fatalf("corrupt footer not detected: %+v", s)
			}
			if !s.Torn {
				// The dead index+footer bytes trail the last record.
				t.Fatalf("scan fallback should flag the dead tail: %+v", s)
			}
		}
		got += uint64(s.Records)
	}
	if got != total {
		t.Fatalf("scan fallback lost records: got %d, want %d", got, total)
	}
	if n := uint64(len(collect(t, cat.Iter(Query{})))); n != total {
		t.Fatalf("iterated %d, want %d", n, total)
	}
}

// TestRecoveryIsIdempotent recovers the same torn directory twice; the
// second open finds only sealed segments and changes nothing.
func TestRecoveryIsIdempotent(t *testing.T) {
	dir, part, _, _ := buildTornDir(t, 4)
	offs, end := recordOffsets(t, part)
	truncateTo(t, part, offs[len(offs)-1]+(end-offs[len(offs)-1])/2)

	w1, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq1 := w1.NextSeq()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	cat1, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs1 := cat1.Records()

	w2, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := w2.NextSeq(); got != seq1 {
		t.Fatalf("second recovery moved NextSeq: %d -> %d", seq1, got)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	cat2, err := OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := cat2.Records(); got != recs1 {
		t.Fatalf("second recovery changed record count: %d -> %d", recs1, got)
	}
	for _, s := range cat2.Segments() {
		if strings.HasSuffix(s.Path, ".part") {
			t.Fatalf("recovery left a part behind: %+v", s)
		}
	}
}

// TestOpenCatalogScanAllocsIndependentOfRecords pins the record-by-record
// scan that every .part takes at open and at writer recovery at a
// constant number of allocations: none per record, so a 2000-record
// part costs what a 500-record one does, up to the growth of its sparse
// index (one entry per defaultIndexEvery records).
func TestOpenCatalogScanAllocsIndependentOfRecords(t *testing.T) {
	openAllocs := func(records int) float64 {
		dir := t.TempDir()
		w, err := OpenWriter(dir, Options{})
		if err != nil {
			t.Fatalf("OpenWriter: %v", err)
		}
		for i := 0; i < records; i++ {
			if err := w.ArchiveFrames(1, "veh", mkFrames(5, time.Duration(i)*time.Second)); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		// Leave the writer open, as after a crash, so the part stays a
		// .part and OpenCatalog must scan it.
		c, err := OpenCatalog(dir)
		if err != nil {
			t.Fatal(err)
		}
		if segs := c.Segments(); len(segs) != 1 || !strings.HasSuffix(segs[0].Path, ".part") || c.Records() != uint64(records) {
			t.Fatalf("want one %d-record .part, got %+v", records, segs)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := OpenCatalog(dir); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := openAllocs(500), openAllocs(2000)
	if small > 50 || large-small > 4 {
		t.Fatalf("OpenCatalog over a .part: %.0f allocations at 500 records, %.0f at 2000; want O(1) per scan", small, large)
	}
}

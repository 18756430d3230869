package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSegmentGoldenBytes pins the segment format: one sealed segment
// holding a frames, an event, a verdict and an epoch record must be
// exactly the bytes in testdata/segment.golden — header, envelopes,
// record CRCs, sparse index and footer alike.
func TestSegmentGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWriter(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ArchiveSpecEpoch(3, "3f1a9c0d2e4b"); err != nil {
		t.Fatal(err)
	}
	if err := w.ArchiveFrames(1, "car-1", mkFrames(8, time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := w.ArchiveEvent(1, "car-1", testEvent("Rule5", 1200*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := w.ArchiveVerdict(1, "car-1", testVerdict(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, segFileName(1, true)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/segment.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes drifted from testdata/segment.golden:\ngot  %x\nwant %x", got, want)
	}
}

package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestLedgerGoldenBytes pins the ledger's on-disk format: a scripted
// sequence touching every record kind must write exactly the bytes in
// testdata/ledger.golden. Any drift breaks every ledger a deployed
// monitord already holds, so regenerate the golden only with a
// deliberate format change (and a migration).
func TestLedgerGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir) // epoch
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return l.SessionOpened(7, 0xDEADBEEF, 4, "veh-a", "strict") },
		func() error { return l.Watermark(7, 3, 120, 1) },
		func() error { return l.VerdictReached(7, 5, testVerdict()) },
		func() error { return l.VerdictDelivered(7) },
		func() error { return l.SessionClosed(7) },
		func() error { return l.SpecEpochChanged(2, "3f1a9c0d2e4b") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, ledgerName))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/ledger.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("ledger bytes drifted from testdata/ledger.golden:\ngot  %x\nwant %x", got, want)
	}
}

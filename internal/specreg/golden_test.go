package specreg

import (
	"bytes"
	"os"
	"testing"
)

// TestRegistryGoldenBytes pins the registry's on-disk format: a
// scripted spec, candidate, promote and rollback sequence must write
// exactly the bytes in testdata/registry.golden, so a refactor of the
// log can never strand a deployed registry.
func TestRegistryGoldenBytes(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Put("strict", "spec Strict { assert !ACCEnabled }")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := r.Put("relaxed", "spec Relaxed { assert ACCEnabled }")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetCandidate(h2); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(h1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Rollback(h2, "too divergent"); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(r.Path())
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/registry.golden")
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("registry bytes drifted from testdata/registry.golden:\ngot  %x\nwant %x", got, want)
	}
}

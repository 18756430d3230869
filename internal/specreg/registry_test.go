package specreg

import (
	"os"
	"strings"
	"testing"
)

func TestRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	h1, err := r.Put("strict", "rule text one")
	if err != nil {
		t.Fatal(err)
	}
	if h1 != Hash("rule text one") {
		t.Fatalf("Put hash = %s, want content hash", h1)
	}
	h2, err := r.Put("relaxed", "rule text two")
	if err != nil {
		t.Fatal(err)
	}
	if h1 == h2 {
		t.Fatal("distinct sources share a hash")
	}
	// Re-pushing identical text is a no-op that returns the same hash
	// and keeps the original name.
	if h, err := r.Put("renamed", "rule text one"); err != nil || h != h1 {
		t.Fatalf("duplicate Put = %s, %v; want %s, nil", h, err, h1)
	}
	if err := r.Promote(h1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.SetCandidate(h2); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the fold must reproduce specs, order and pointers.
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	specs := r2.Specs()
	if len(specs) != 2 || specs[0].Hash != h1 || specs[0].Name != "strict" || specs[1].Hash != h2 {
		t.Fatalf("Specs() = %+v", specs)
	}
	if s, ok := r2.Get(h1); !ok || s.Source != "rule text one" {
		t.Fatalf("Get(%s) = %+v, %v", h1, s, ok)
	}
	// A 12-hex-digit prefix resolves too.
	if s, ok := r2.Get(h2[:12]); !ok || s.Hash != h2 {
		t.Fatalf("Get(prefix) = %+v, %v", s, ok)
	}
	st := r2.State()
	if st.ActiveHash != h1 || st.ActiveEpoch != 1 || st.CandidateHash != h2 {
		t.Fatalf("State() = %+v", st)
	}

	// Rollback clears the candidate and records the reason.
	if err := r2.Rollback(h2, "too divergent"); err != nil {
		t.Fatal(err)
	}
	st = r2.State()
	if st.CandidateHash != "" || st.RollbackHash != h2 || st.RollbackReason != "too divergent" {
		t.Fatalf("post-rollback State() = %+v", st)
	}
}

func TestRegistryPromoteEpochMonotonic(t *testing.T) {
	r, err := OpenRegistry(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	h, err := r.Put("s", "src")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(h, 3); err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(h, 3); err == nil {
		t.Fatal("replayed promote epoch accepted")
	}
	if err := r.Promote(h, 2); err == nil {
		t.Fatal("regressing promote epoch accepted")
	}
	if err := r.Promote("deadbeef", 4); err == nil {
		t.Fatal("promote of unknown hash accepted")
	}
}

// TestRegistryTornTail crashes mid-append (simulated by appending
// garbage and a truncated record) and checks the reopen serves every
// record before the tear and lands appends on a clean boundary.
func TestRegistryTornTail(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.Put("strict", "good spec")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Promote(h, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(r.Path(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible length prefix followed by half a record.
	if _, err := f.Write([]byte{0x40, 0, 0, 0, rSpec, 0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st := r2.State(); st.ActiveHash != h || st.ActiveEpoch != 1 {
		t.Fatalf("post-tear State() = %+v", st)
	}
	// The truncation must leave the log appendable: a new record after
	// the repair must survive another reopen.
	h2, err := r2.Put("relaxed", "new spec")
	if err != nil {
		t.Fatal(err)
	}
	r2.Close()
	r3, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if _, ok := r3.Get(h2); !ok {
		t.Fatal("record appended after repair did not survive reopen")
	}
}

// TestRegistryRefusesOversizeRollback: a rollback hash over 64KiB
// would be written with a truncated u16 length the fold cannot parse,
// and the next open would cut that record and every one after it. It
// must be refused, leaving later appends readable.
func TestRegistryRefusesOversizeRollback(t *testing.T) {
	dir := t.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Rollback(strings.Repeat("h", 0x10000), "reason"); err == nil {
		t.Fatal("a rollback hash over 64KiB was accepted")
	}
	h, err := r.Put("strict", "src")
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r2, err := OpenRegistry(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, ok := r2.Get(h); !ok {
		t.Fatal("a spec stored after the refused rollback was lost on reopen")
	}
}

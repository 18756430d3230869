package specreg

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cpsmon/internal/recordlog"
)

// FuzzRegistryFold feeds arbitrary, correctly checksummed record bodies
// to the registry's payload decoders (cut16, cut32 and the per-kind
// layouts) behind a healthy log prefix. The fold must never panic; a
// body it rejects must be the tear, costing nothing before it; and the
// repaired log must reopen to the same specs and pointers.
func FuzzRegistryFold(f *testing.F) {
	dir := f.TempDir()
	r, err := OpenRegistry(dir)
	if err != nil {
		f.Fatal(err)
	}
	h, _ := r.Put("strict", "spec S { assert !ACCEnabled }")
	r.SetCandidate(h)
	r.Promote(h, 1)
	r.Rollback(h, "reason")
	r.Close()
	healthy, err := os.ReadFile(filepath.Join(dir, registryName))
	if err != nil {
		f.Fatal(err)
	}
	// Seed with each healthy body, then a few truncations of one.
	recordlog.Scan(healthy, minBody, maxBody, func(body []byte) bool {
		f.Add(append([]byte(nil), body...))
		return true
	})
	f.Add([]byte{rSpec, 0xFF, 0xFF})
	f.Add([]byte{rSpec, 2, 0, 'h', 'h', 1, 0, 'n', 0xFF, 0xFF, 0xFF, 0x7F})
	f.Add([]byte{rPromote, 1, 2, 3})

	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) < minBody || len(body) > maxBody {
			return // cut by the length bounds before any decoder runs
		}
		accepted := (&Registry{specs: make(map[string]*Spec)}).foldRecord(body)

		sub := t.TempDir()
		data := append(append([]byte(nil), healthy...), recordlog.Seal(append([]byte{0, 0, 0, 0}, body...))...)
		if err := os.WriteFile(filepath.Join(sub, registryName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenRegistry(sub)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.Get(h); !ok {
			t.Fatal("a fuzzed final record cost the healthy prefix its spec")
		}
		specs, st := r.Specs(), r.State()
		r.Close()
		fi, err := os.Stat(filepath.Join(sub, registryName))
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(len(data)); !accepted {
			want = int64(len(healthy))
			if fi.Size() != want {
				t.Fatalf("rejected body: log is %d bytes after repair, want %d", fi.Size(), want)
			}
		} else if fi.Size() != want {
			t.Fatalf("accepted body was cut: log is %d bytes, want %d", fi.Size(), want)
		}

		r2, err := OpenRegistry(sub)
		if err != nil {
			t.Fatal(err)
		}
		defer r2.Close()
		if !reflect.DeepEqual(r2.Specs(), specs) || r2.State() != st {
			t.Fatal("reopening the repaired registry changed its state")
		}
	})
}

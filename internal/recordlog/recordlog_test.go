package recordlog

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

const (
	testMin = 1
	testMax = 64
)

// frame returns body as one framed record.
func frame(body []byte) []byte {
	return Seal(append([]byte{0, 0, 0, 0}, body...))
}

// collect is a fold that keeps every body it is handed.
func collect(out *[][]byte) func([]byte) bool {
	return func(b []byte) bool {
		*out = append(*out, append([]byte(nil), b...))
		return true
	}
}

// writeLog writes data as the log file in a fresh directory.
func writeLog(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.log")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestSealCheckRoundTrip(t *testing.T) {
	rec := frame([]byte("hello"))
	if n := binary.LittleEndian.Uint32(rec); n != 5+4 {
		t.Fatalf("length prefix %d, want 9", n)
	}
	body, ok := Check(rec[4:])
	if !ok || string(body) != "hello" {
		t.Fatalf("Check = %q, %v", body, ok)
	}
	rec[6] ^= 1
	if _, ok := Check(rec[4:]); ok {
		t.Fatal("a flipped body bit passed the checksum")
	}
	if _, ok := Check([]byte{1, 2, 3}); ok {
		t.Fatal("a body shorter than its checksum passed")
	}
}

// TestOpenRepairsTail is the one torn-tail table: every way a log can
// end must open to exactly the records before the damage, cut the rest,
// and leave the file appendable.
func TestOpenRepairsTail(t *testing.T) {
	good := [][]byte{[]byte("first"), []byte("second record"), []byte("3")}
	var whole []byte
	for _, b := range good {
		whole = append(whole, frame(b)...)
	}
	last := frame([]byte("the final record"))
	badCRC := frame([]byte("x"))
	badCRC[len(badCRC)-1] ^= 0xFF
	type tc struct {
		name string
		data []byte
		fold func([]byte) bool
		keep int // records that must survive
	}
	cases := []tc{
		{name: "clean", data: whole, keep: 3},
		{name: "empty", data: nil, keep: 0},
		{name: "garbage tail", data: append(append([]byte(nil), whole...), 0xFF, 0xFF, 0xFF, 0xFF, 0, 1, 2), keep: 3},
		{name: "zero-filled tail", data: append(append([]byte(nil), whole...), make([]byte, 64)...), keep: 3},
		{name: "over-bound length", data: append(append([]byte(nil), whole...), frame(make([]byte, testMax+1))...), keep: 3},
		{name: "under-bound length", data: append(append([]byte(nil), whole...), frame(nil)...), keep: 3},
		{name: "bad checksum", data: append(append([]byte(nil), whole...), badCRC...), keep: 3},
		{name: "fold rejection is the tear", data: append(append([]byte(nil), whole...), last...), keep: 3,
			fold: func(b []byte) bool { return string(b) != "the final record" }},
		{name: "fold rejection mid-log", data: whole, keep: 1,
			fold: func(b []byte) bool { return string(b) != "second record" }},
	}
	for cut := 1; cut < len(last); cut++ {
		cases = append(cases, tc{
			name: "torn final record",
			data: append(append([]byte(nil), whole...), last[:cut]...),
			keep: 3,
		})
	}
	for _, c := range cases {
		path := writeLog(t, c.data)
		var got [][]byte
		fold := collect(&got)
		if c.fold != nil {
			fold = func(b []byte) bool { return c.fold(b) && collect(&got)(b) }
		}
		l, cut, err := Open(path, testMin, testMax, fold)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(got) != c.keep {
			t.Fatalf("%s: folded %d records, want %d", c.name, len(got), c.keep)
		}
		keepBytes := 0
		for i, b := range got {
			if !bytes.Equal(b, good[i]) {
				t.Fatalf("%s: record %d = %q, want %q", c.name, i, b, good[i])
			}
			keepBytes += 8 + len(b)
		}
		if want := int64(len(c.data) - keepBytes); cut != want {
			t.Fatalf("%s: cut %d bytes, want %d", c.name, cut, want)
		}
		// The repaired log takes an append that survives a reopen.
		if _, err := l.Append([]byte("after repair")); err != nil {
			t.Fatalf("%s: append after repair: %v", c.name, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		var again [][]byte
		l2, cut2, err := Open(path, testMin, testMax, collect(&again))
		if err != nil {
			t.Fatalf("%s: reopen: %v", c.name, err)
		}
		l2.Close()
		if c.fold == nil && (cut2 != 0 || len(again) != c.keep+1 || string(again[c.keep]) != "after repair") {
			t.Fatalf("%s: reopen after repair folded %d records (cut %d), want %d ending in the append",
				c.name, len(again), cut2, c.keep+1)
		}
	}
}

// TestAppendRefusesOutOfBounds: a body the log's own Open would cut as
// the tear is refused, and the file is left byte-for-byte unchanged.
func TestAppendRefusesOutOfBounds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	l, _, err := Open(path, testMin, testMax, func([]byte) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.Append([]byte("kept")); err != nil || n != 4+4+4 {
		t.Fatalf("Append = %d, %v; want 12, nil", n, err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{nil, make([]byte, testMax+1)} {
		if n, err := l.Append(body); err == nil || n != 0 {
			t.Fatalf("Append of %d bytes = %d, %v; want a refusal", len(body), n, err)
		}
	}
	if _, err := l.Append(make([]byte, testMax)); err != nil {
		t.Fatalf("Append at the bound: %v", err)
	}
	l.Close()
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after[:len(before)], before) || len(after) != len(before)+8+testMax {
		t.Fatal("a refused append changed the file")
	}
	if _, err := l.Append([]byte("late")); err == nil {
		t.Fatal("Append on a closed log succeeded")
	}
}

// FuzzRecordLog pins the two laws of the torn-tail rule over arbitrary
// bytes: folding the repaired prefix folds the same records and cuts
// nothing (fold∘truncate = fold), and a record appended after the
// repair survives a reopen.
func FuzzRecordLog(f *testing.F) {
	var healthy []byte
	for _, b := range []string{"alpha", "beta", "gamma"} {
		healthy = append(healthy, frame([]byte(b))...)
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-3])
	f.Add([]byte{})
	f.Add(append(healthy, 0xFF, 0xFF, 0xFF, 0x7F, 0x01))
	f.Add(append(healthy, make([]byte, 16)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		var first [][]byte
		end := Scan(data, testMin, testMax, collect(&first))
		if end < 0 || end > int64(len(data)) {
			t.Fatalf("Scan reported prefix %d of %d bytes", end, len(data))
		}
		var second [][]byte
		if end2 := Scan(data[:end], testMin, testMax, collect(&second)); end2 != end {
			t.Fatalf("Scan is not a fixed point: %d then %d", end, end2)
		}
		if len(first) != len(second) {
			t.Fatalf("refolding the valid prefix folded %d records, first pass %d", len(second), len(first))
		}
		for i := range first {
			if !bytes.Equal(first[i], second[i]) {
				t.Fatalf("record %d differs on refold", i)
			}
		}

		path := writeLog(t, data)
		var opened [][]byte
		l, cut, err := Open(path, testMin, testMax, collect(&opened))
		if err != nil {
			t.Fatal(err)
		}
		if cut != int64(len(data))-end || len(opened) != len(first) {
			t.Fatalf("Open cut %d and folded %d; Scan kept %d of %d bytes and %d records",
				cut, len(opened), end, len(data), len(first))
		}
		if _, err := l.Append([]byte("appended")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		var reopened [][]byte
		l2, cut2, err := Open(path, testMin, testMax, collect(&reopened))
		if err != nil {
			t.Fatal(err)
		}
		l2.Close()
		if cut2 != 0 || len(reopened) != len(first)+1 || string(reopened[len(first)]) != "appended" {
			t.Fatalf("append after repair lost: reopen cut %d, folded %d records", cut2, len(reopened))
		}
	})
}

package durable

import (
	"strings"
	"testing"

	"cpsmon/internal/wire"
)

// TestLedgerRefusesOversizeVerdict pins a defect where the ledger
// wrote a verdict record larger than its own fold accepts: the next
// Open treated that record as the torn tail and truncated it together
// with every record after it, fsync'd session grants included. An
// oversize verdict must be refused at append, and the log must stay
// whole for what follows.
func TestLedgerRefusesOversizeVerdict(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SessionOpened(1, 0xA1, 4, "veh", "strict"); err != nil {
		t.Fatal(err)
	}
	var v wire.Verdict
	for i := 0; i < 20; i++ {
		v.Rules = append(v.Rules, wire.RuleVerdict{Rule: strings.Repeat(string(rune('a'+i)), 60_000)})
	}
	if err := l.VerdictReached(1, 0, v); err == nil {
		t.Fatal("a verdict larger than the ledger's record bound was accepted")
	}
	if err := l.SessionOpened(2, 0xB2, 4, "veh", "strict"); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.State()
	if s := st.Sessions[1]; s == nil || s.Verdict != nil {
		t.Fatalf("session 1 after reopen = %+v, want open with no verdict", s)
	}
	if s := st.Sessions[2]; s == nil || s.Token != 0xB2 {
		t.Fatalf("session 2 opened after the refused verdict was lost: %+v", s)
	}
}

// TestLedgerAcceptsMaxWireVerdict is the other side of the bound:
// every verdict the wire codec can carry must fit a ledger record.
func TestLedgerAcceptsMaxWireVerdict(t *testing.T) {
	// One encoded rule row costs ruleRow bytes plus its name.
	const target, ruleRow, name = wire.MaxRecordSize + 4, 19, 60_000
	var v wire.Verdict
	for len(wire.Marshal(v))+ruleRow+name <= target-ruleRow {
		v.Rules = append(v.Rules, wire.RuleVerdict{Rule: strings.Repeat("r", name)})
	}
	pad := target - len(wire.Marshal(v)) - ruleRow
	v.Rules = append(v.Rules, wire.RuleVerdict{Rule: strings.Repeat("p", pad)})
	if n := len(wire.Marshal(v)); n != target {
		t.Fatalf("verdict sized to %d bytes, want exactly the wire limit %d", n, target)
	}
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SessionOpened(1, 1, 4, "veh", ""); err != nil {
		t.Fatal(err)
	}
	if err := l.VerdictReached(1, 0, v); err != nil {
		t.Fatalf("a verdict of exactly the wire limit was refused: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if s := l2.State().Sessions[1]; s == nil || s.Verdict == nil || len(s.Verdict.Rules) != len(v.Rules) {
		t.Fatal("a verdict of exactly the wire limit did not survive a reopen")
	}
}

// TestLedgerWatermarkAllocs pins the watermark append — the one ledger
// write on the per-batch path — at zero allocations.
func TestLedgerWatermarkAllocs(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SessionOpened(1, 1, 4, "veh", ""); err != nil {
		t.Fatal(err)
	}
	seq := uint64(0)
	if n := testing.AllocsPerRun(200, func() {
		seq++
		if err := l.Watermark(1, seq, seq*10, 0); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Watermark allocates %.1f times per call, want 0", n)
	}
}

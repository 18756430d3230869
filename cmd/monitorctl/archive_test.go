package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/fleet"
	"cpsmon/internal/recheck"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// buildArchive streams the test capture through a real fleet server
// with the archive hook enabled, one session per vehicle, and returns
// the sealed archive directory.
func buildArchive(t *testing.T, vehicles ...string) string {
	t.Helper()
	dir := t.TempDir()
	aw, err := archive.OpenWriter(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(fleet.Config{
		DB:       sigdb.Vehicle(),
		Resolve:  func(string) (*speclang.RuleSet, error) { return rules.Strict() },
		Triage:   rules.DefaultTriage(),
		Archiver: aw,
		// Full-speed replay outruns the default queue; recheck needs
		// lossless capture.
		ArchiveQueue: 1 << 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	path := writeTestLog(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := can.ReadLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, vehicle := range vehicles {
		c, err := fleet.Dial(srv.Addr().String(), vehicle, "strict", nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Replay(log, 0); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestRunArchiveLs(t *testing.T) {
	dir := buildArchive(t, "veh-ls")
	var sb strings.Builder
	if err := runArchiveLs(dir, &sb); err != nil {
		t.Fatalf("runArchiveLs: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"SEGMENT", "sealed", "total"} {
		if !strings.Contains(out, want) {
			t.Errorf("listing missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "part") || strings.Contains(out, "torn") {
		t.Errorf("cleanly closed archive listed as torn or unsealed:\n%s", out)
	}
}

// TestRunArchiveExport pins the audit-trail export: one JSON line per
// archived event and verdict, in the event/verdict schema, with
// capture-relative at_s and no wall-clock stamp.
func TestRunArchiveExport(t *testing.T) {
	dir := buildArchive(t, "veh-x")
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	it := cat.Iter(archive.Query{Kinds: archive.KindEvent})
	archived := 0
	for it.Next() {
		archived++
	}
	it.Close()
	if archived == 0 {
		t.Fatal("fixture archived no events; the export assertions would be vacuous")
	}

	var sb strings.Builder
	if err := runArchiveExport(dir, &sb); err != nil {
		t.Fatalf("runArchiveExport: %v", err)
	}
	var verdicts, events int
	for _, line := range strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("export line %q: %v", line, err)
		}
		if _, ok := rec["ts"]; ok {
			t.Errorf("export line carries a wall-clock stamp: %q", line)
		}
		if rec["vehicle"] != "veh-x" {
			t.Errorf("export line vehicle = %v, want veh-x: %q", rec["vehicle"], line)
		}
		switch kind := rec["kind"]; kind {
		case "verdict":
			verdicts++
			if rules, ok := rec["rules"].([]any); !ok || len(rules) == 0 {
				t.Errorf("verdict line has no rule rows: %q", line)
			}
		case "begin", "end", "gap":
			events++
			if _, ok := rec["at_s"].(float64); !ok {
				t.Errorf("event line without at_s: %q", line)
			}
		default:
			t.Errorf("export line with unknown kind %v: %q", kind, line)
		}
	}
	if verdicts != 1 || events != archived {
		t.Errorf("export holds %d verdicts and %d events, want 1 and %d", verdicts, events, archived)
	}
}

// TestArchiveExportNonFinitePeaks pins a failure found in the field: a
// NaN-injected signal drives a violation's peak severity to +Inf,
// which encoding/json refuses to marshal — every such end event would
// silently vanish from the export. Non-finite peaks must export as
// quoted strings, losing no lines.
func TestArchiveExportNonFinitePeaks(t *testing.T) {
	dir := t.TempDir()
	aw, err := archive.OpenWriter(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, peak := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0.12} {
		if err := aw.ArchiveEvent(1, "veh-1", wire.Event{Kind: wire.EventEnd, Rule: "Rule5", Peak: peak}); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.ArchiveEvent(1, "veh-1", wire.Event{Kind: wire.EventBegin, Rule: "Rule5"}); err != nil {
		t.Fatal(err)
	}
	if err := aw.ArchiveVerdict(1, "veh-1", wire.Verdict{Rules: []wire.RuleVerdict{{Rule: "Rule5", Violated: true}}}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := runArchiveExport(dir, &sb); err != nil {
		t.Fatalf("runArchiveExport: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(sb.String(), "\n"), "\n")
	if len(lines) != 6 {
		t.Fatalf("export holds %d lines, want 6:\n%s", len(lines), sb.String())
	}
	var peaks []any
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("export line %q: %v", line, err)
		}
		if rec["kind"] == "end" {
			peaks = append(peaks, rec["peak"])
		}
	}
	want := []any{"+Inf", "-Inf", "NaN", 0.12}
	if len(peaks) != len(want) {
		t.Fatalf("export holds %d end lines, want %d", len(peaks), len(want))
	}
	for i, p := range peaks {
		if p != want[i] {
			t.Errorf("peak %d exported as %v (%T), want %v", i, p, p, want[i])
		}
	}
}

// TestRunRecheckSameSpecAgrees pins the CLI half of the e2e criterion:
// rechecking an archive against the spec that produced it reports zero
// divergence and exits clean.
func TestRunRecheckSameSpecAgrees(t *testing.T) {
	dir := buildArchive(t, "veh-a", "veh-b")
	db := sigdb.Vehicle()
	var sb strings.Builder
	if err := runRecheck(dir, "strict", db, speclang.DeltaUpdateAware, recheck.Options{}, &sb); err != nil {
		t.Fatalf("runRecheck: %v\n%s", err, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "2 sessions checked, 0 divergent") {
		t.Errorf("same-spec recheck not clean:\n%s", out)
	}
	if strings.Contains(out, "DIVERGED") || strings.Contains(out, "REGRESSION") {
		t.Errorf("same-spec recheck reported divergence:\n%s", out)
	}

	// An explicit -vehicle narrows the replay to that vehicle.
	sb.Reset()
	if err := runRecheck(dir, "strict", db, speclang.DeltaUpdateAware, recheck.Options{Vehicle: "veh-a"}, &sb); err != nil {
		t.Fatalf("runRecheck -vehicle: %v\n%s", err, sb.String())
	}
	if out := sb.String(); strings.Contains(out, "veh-b") || !strings.Contains(out, "veh-a") {
		t.Errorf("vehicle filter did not narrow the recheck:\n%s", out)
	}
}

// TestRunRecheckWorkersFlag pins the -workers flag: it is threaded
// through to recheck.Options and the sharded run prints the same
// report as the sequential default, while a negative count is
// rejected with the familiar single-error exit path.
func TestRunRecheckWorkersFlag(t *testing.T) {
	dir := buildArchive(t, "veh-w1", "veh-w2", "veh-w3")
	db := sigdb.Vehicle()
	var seq strings.Builder
	if err := runRecheck(dir, "strict", db, speclang.DeltaUpdateAware, recheck.Options{Workers: 1}, &seq); err != nil {
		t.Fatalf("sequential runRecheck: %v\n%s", err, seq.String())
	}
	for _, workers := range []int{0, 2, 4} {
		var par strings.Builder
		if err := runRecheck(dir, "strict", db, speclang.DeltaUpdateAware, recheck.Options{Workers: workers}, &par); err != nil {
			t.Fatalf("workers=%d runRecheck: %v\n%s", workers, err, par.String())
		}
		if par.String() != seq.String() {
			t.Errorf("workers=%d output differs from sequential:\n--- workers=1\n%s--- workers=%d\n%s",
				workers, seq.String(), workers, par.String())
		}
	}

	// The full CLI path accepts the flag and rejects a negative count.
	if err := run([]string{"-recheck", "strict", "-archive-dir", dir, "-workers", "2"}); err != nil {
		t.Errorf("run -workers 2: %v", err)
	}
	err := run([]string{"-recheck", "strict", "-archive-dir", dir, "-workers", "-3"})
	if err == nil || !strings.Contains(err.Error(), "worker count") {
		t.Errorf("run -workers -3: got %v, want worker-count error", err)
	}
}

// TestRunRecheckTightenedSpecRegresses rechecks against a tightened
// spec the archived traffic violates: the run must report the
// regression and return an error so CI gates fail.
func TestRunRecheckTightenedSpecRegresses(t *testing.T) {
	dir := buildArchive(t, "veh-tight")
	spec := filepath.Join(t.TempDir(), "tight.spec")
	// The test capture has an ACCEnabled burst; forbidding engagement
	// outright is strictly worse than every archived rule.
	if err := os.WriteFile(spec, []byte(`spec Tight { assert !ACCEnabled }`), 0o644); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	err := runRecheck(dir, spec, sigdb.Vehicle(), speclang.DeltaUpdateAware, recheck.Options{}, &sb)
	if err == nil {
		t.Fatalf("tightened recheck exited clean:\n%s", sb.String())
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Errorf("error %q does not mention regressions", err)
	}
	if out := sb.String(); !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "DIVERGED") {
		t.Errorf("regression not reported in output:\n%s", out)
	}
}

func TestRunArchiveFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-archive-ls"},        // no -archive-dir
		{"-recheck", "strict"}, // no -archive-dir
		{"-archive-ls", "-archive-dir", "/nonexistent"},
		{"-recheck", "/nonexistent.spec", "-archive-dir", "/nonexistent"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

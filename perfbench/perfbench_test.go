package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"cpsmon/internal/rules"
	"cpsmon/internal/wire"
)

// TestFinishWaitsForLastMark ends phases whose every window boundary
// has already passed, so the CPU reader's last mark and finish race;
// finish must wait for the mark rather than report a short phase.
func TestFinishWaitsForLastMark(t *testing.T) {
	for i := 0; i < 200; i++ {
		w := startWindows(time.Now().Add(-3*time.Millisecond), 2*time.Millisecond, selfCPU)
		w.add(completion{at: w.start, frames: 1, lat: []float64{1}})
		if _, _, _, _, err := w.finish(); err != nil {
			t.Fatalf("phase %d: %v", i, err)
		}
	}
}

// TestCorruptedVerdictIsCounted feeds the reference checks one
// deliberately corrupted output of each kind and requires each to be
// counted as failed, so failed_frac is known to be live.
func TestCorruptedVerdictIsCounted(t *testing.T) {
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		t.Fatal(err)
	}
	caps, err := hilCaptures(7, 1, mon)
	if err != nil {
		t.Fatal(err)
	}
	cp := caps[0]
	if len(cp.events) == 0 {
		t.Fatal("capture has no violation events; the corruptions below would prove nothing")
	}

	acct := &accounting{}
	good := cp.verdict
	acct.record(cp.checkSession(&good, cp.events))
	if _, failed := acct.counts(); failed != 0 {
		t.Fatalf("the reference itself failed its check: %v", acct.firstError())
	}

	bad := cp.verdict
	bad.Rules = append([]wire.RuleVerdict(nil), cp.verdict.Rules...)
	bad.Rules[0].Violations++
	acct.record(cp.checkSession(&bad, cp.events))

	acct.record(cp.checkSession(&good, cp.events[1:]))

	peak := append([]wire.Event(nil), cp.events...)
	for i := range peak {
		if peak[i].Kind == wire.EventEnd {
			peak[i].Peak = -123.25 // no severity peak is negative
			break
		}
	}
	acct.record(cp.checkSession(&good, peak))

	acct.record(cp.checkSession(nil, cp.events))
	acct.record(sameRules(bad, cp.verdict))

	attempted, failed := acct.counts()
	if attempted != 6 || failed != 5 {
		t.Fatalf("attempted %d failed %d, want 6 attempted and 5 failed", attempted, failed)
	}
}

// TestBenchmarkJSONMatches keeps the repository's BENCHMARK.json in
// step with the names and units the harness reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []named, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness reports %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %q in %q; the harness reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, declaredUnits(false))
	same("per_layer", spec.PerLayer, declaredUnits(true))
	known := map[string]bool{}
	for _, wl := range workloads {
		known[wl.name] = true
	}
	for _, wl := range spec.Workloads {
		if !known[wl.Name] {
			t.Errorf("BENCHMARK.json workload %q is not a harness workload", wl.Name)
		}
	}
}

// TestHarnessShort runs every workload tiny, untraced and traced, and
// checks that each run is correct, reports exactly the declared
// end-to-end or per-layer names with their units, that every name has
// the metric-name shape, and that every workload's runs report the
// same names as every other's.
func TestHarnessShort(t *testing.T) {
	if testing.Short() {
		t.Skip("builds monitord and drives it")
	}
	bin := filepath.Join(t.TempDir(), "monitord")
	if out, err := exec.Command("go", "build", "-o", bin, "cpsmon/cmd/monitord").CombinedOutput(); err != nil {
		t.Fatalf("build monitord: %v\n%s", err, out)
	}
	figures := map[string][]string{
		"ingest":   {"ingest_fps", "sessions", "failed_frac"},
		"paced":    {"detect_p50_ms", "detect_p90_ms", "detect_p99_ms", "detect_samples", "loadgen.late_frac", "loadgen.lag_p99_ms", "failed_frac"},
		"offline":  {"check_fps", "recheck_fps", "failed_frac"},
		"campaign": {"campaign_s", "tables", "failed_frac"},
	}
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.name, seed: 3, seconds: 0.5, trace: traced, monitord: bin, workDir: t.TempDir()}
			res, err := runBenchmark(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := declaredUnits(traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wl.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit || !metricName.MatchString(name) {
					t.Errorf("%s traced=%v: metric %q = %+v, want unit %q", wl.name, traced, name, m, unit)
				}
			}
			if traced {
				continue
			}
			for _, name := range figures[wl.name] {
				if f, ok := res.figures[name]; !ok || f.Unit == "" || !metricName.MatchString(name) {
					t.Errorf("%s: figure %q missing or without unit: %+v", wl.name, name, f)
				}
			}
		}
	}
	for _, d := range endToEnd {
		if !metricName.MatchString(d.name) {
			t.Errorf("bad end-to-end name %q", d.name)
		}
	}
}

package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: cpsmon
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig1SignalCodec-8   	34024694	        35.21 ns/op	       0 B/op	       0 allocs/op
BenchmarkMonitorOnline-8     	      22	  51085132 ns/op	   15769 frames/sec	      63 ns/frame	   38848 B/op	     402 allocs/op
BenchmarkSpecCompile         	    8342	    142035 ns/op	   98637 B/op	    1792 allocs/op
BenchmarkMonitorCheckLog-2   	      24	  47312008 ns/op	        63.08 ns/frame	 9182734 B/op	    1517 allocs/op
PASS
ok  	cpsmon	12.442s
--- BENCH: BenchmarkSomethingVerbose
    bench_test.go:42: note
`

func TestParse(t *testing.T) {
	recs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("parsed %d records, want 4: %+v", len(recs), recs)
	}
	codec := recs[0]
	if codec.Name != "BenchmarkFig1SignalCodec" {
		t.Errorf("name = %q, want GOMAXPROCS suffix stripped", codec.Name)
	}
	if codec.Iterations != 34024694 || codec.NsPerOp != 35.21 || codec.AllocsPerOp != 0 || codec.BytesPerOp != 0 {
		t.Errorf("codec record = %+v", codec)
	}
	online := recs[1]
	if online.NsPerOp != 51085132 {
		t.Errorf("ns/op = %v, want 51085132", online.NsPerOp)
	}
	// Custom ReportMetric columns must not be mistaken for B/op.
	if online.BytesPerOp != 38848 || online.AllocsPerOp != 402 {
		t.Errorf("online record = %+v", online)
	}
	if online.Metrics["frames/sec"] != 15769 || online.Metrics["ns/frame"] != 63 || len(online.Metrics) != 2 {
		t.Errorf("online custom metrics = %v, want frames/sec and ns/frame", online.Metrics)
	}
	bare := recs[2]
	if bare.Name != "BenchmarkSpecCompile" || bare.AllocsPerOp != 1792 {
		t.Errorf("bare record = %+v", bare)
	}
	if bare.Metrics != nil {
		t.Errorf("bare record grew metrics %v", bare.Metrics)
	}
	checklog := recs[3]
	if checklog.Name != "BenchmarkMonitorCheckLog" || checklog.Metrics["ns/frame"] != 63.08 ||
		checklog.BytesPerOp != 9182734 || checklog.AllocsPerOp != 1517 {
		t.Errorf("checklog record = %+v", checklog)
	}
}

func TestLabelTagsEveryRecordAndStaysOptional(t *testing.T) {
	recs, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	// Unlabelled records must omit the field entirely, keeping old
	// snapshots byte-compatible.
	plain, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(plain), "label") {
		t.Errorf("unlabelled records leak a label field: %s", plain)
	}
	applyLabel(recs, "PR4")
	for _, r := range recs {
		if r.Label != "PR4" {
			t.Errorf("record %s label = %q, want PR4", r.Name, r.Label)
		}
	}
	tagged, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(tagged), `"label": "PR4"`) && !strings.Contains(string(tagged), `"label":"PR4"`) {
		t.Errorf("labelled records missing the tag: %s", tagged)
	}
}

func TestParseEmpty(t *testing.T) {
	recs, err := parse(strings.NewReader("PASS\nok \tcpsmon\t0.1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("parsed %d records from benchmark-free output", len(recs))
	}
}

const repeats = `BenchmarkStreamStep/push-2   	 50	 20000000 ns/op	 300.0 ns/step	 45000 B/op	 306 allocs/op
BenchmarkFig1SignalCodec-2   	 100	 30.0 ns/op	 0 B/op	 0 allocs/op
BenchmarkStreamStep/push-2   	 40	 26000000 ns/op	 340.0 ns/step	 45010 B/op	 306 allocs/op
BenchmarkStreamStep/push-2   	 60	 18000000 ns/op	 280.0 ns/step	 44990 B/op	 306 allocs/op
`

func TestFoldRepeatsIntoMedianAndRange(t *testing.T) {
	recs, err := parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	folded := fold(recs)
	if len(folded) != 2 || folded[0].Name != "BenchmarkStreamStep/push" || folded[1].Name != "BenchmarkFig1SignalCodec" {
		t.Fatalf("folded records %+v, want one per benchmark in first-seen order", folded)
	}
	step := folded[0]
	if step.Runs != 3 || step.NsPerOp != 20000000 || step.Metrics["ns/step"] != 300 || step.BytesPerOp != 45000 || step.Iterations != 50 {
		t.Errorf("folded record %+v, want medians of three runs", step)
	}
	if step.Range["ns/step"] != [2]float64{280, 340} || step.Range["ns/op"] != [2]float64{18000000, 26000000} {
		t.Errorf("ranges %v, want each unit's [min, max]", step.Range)
	}
	if single := folded[1]; single.Runs != 0 || single.Range != nil || single.NsPerOp != 30 {
		t.Errorf("single run %+v, want it unchanged", single)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestCompareFlagsOnlyOutsideBothRanges(t *testing.T) {
	base := []Record{
		{Name: "A", NsPerOp: 100, Runs: 3, Range: map[string][2]float64{"ns/op": {90, 110}}},
		{Name: "B", NsPerOp: 100, Runs: 3, Range: map[string][2]float64{"ns/op": {95, 105}}},
		{Name: "C", NsPerOp: 100, Metrics: map[string]float64{"frames/s": 1000}},
		{Name: "Gone", NsPerOp: 1},
	}
	cur := []Record{
		// Medians inside each other's ranges: noise.
		{Name: "A", NsPerOp: 108, Runs: 3, Range: map[string][2]float64{"ns/op": {95, 130}}},
		// 50 lies outside [95, 105] and 100 outside [45, 55]: better.
		{Name: "B", NsPerOp: 50, Runs: 3, Range: map[string][2]float64{"ns/op": {45, 55}}},
		// Single runs span their own value: throughput down is worse.
		{Name: "C", NsPerOp: 100, Metrics: map[string]float64{"frames/s": 800}},
		{Name: "New", NsPerOp: 1},
	}
	var out strings.Builder
	compare(&out, base, cur)
	verdict := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		f := strings.Fields(line)
		verdict[f[0]+" "+f[1]] = f[len(f)-1]
	}
	want := map[string]string{
		"A ns/op": "~", "A B/op": "~", "A allocs/op": "~",
		"B ns/op": "better", "B B/op": "~", "B allocs/op": "~",
		"C ns/op": "~", "C frames/s": "worse", "C B/op": "~", "C allocs/op": "~",
	}
	if !reflect.DeepEqual(verdict, want) {
		t.Errorf("verdicts %v, want %v\n%s", verdict, want, out.String())
	}
}

func TestLoadReadsSnapshotsAndTestOutput(t *testing.T) {
	recs, err := parse(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(fold(recs))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := load(strings.NewReader("\n" + string(snap)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromJSON, fold(recs)) {
		t.Errorf("snapshot round trip %+v, want %+v", fromJSON, fold(recs))
	}
	fromText, err := load(strings.NewReader(repeats))
	if err != nil {
		t.Fatal(err)
	}
	if len(fromText) != 4 {
		t.Errorf("parsed %d runs from go test output, want 4", len(fromText))
	}
}

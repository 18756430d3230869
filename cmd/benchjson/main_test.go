package main

import (
	"encoding/json"
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

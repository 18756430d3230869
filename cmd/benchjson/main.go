// Command benchjson converts `go test -bench -benchmem` text output
// into a JSON array of benchmark records, so benchmark history can be
// committed and diffed between performance PRs.
//
// Usage:
//
//	go test -bench=. -benchmem -run='^$' ./... | benchjson > BENCH.json
//	go test -bench=. -benchmem -run='^$' ./... | benchjson -label PR4 > BENCH_PR4.json
//
// Non-benchmark lines (package headers, PASS/ok trailers) are ignored.
// Columns beyond ns/op, B/op and allocs/op (b.ReportMetric values such
// as ns/frame, or MB/s) are kept in each record's metrics map, keyed by
// unit. The -N GOMAXPROCS suffix is stripped from names so records stay
// comparable across machines.
// -label tags every record, so a snapshot says which PR produced it
// even after it is copied or concatenated with another.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result.
type Record struct {
	Name        string  `json:"name"`
	Label       string  `json:"label,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Metrics holds every other "<value> <unit>" column, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// applyLabel stamps every record with the snapshot's tag.
func applyLabel(recs []Record, label string) {
	for i := range recs {
		recs[i].Label = label
	}
}

// procSuffix matches the trailing -N GOMAXPROCS marker on a benchmark
// name.
var procSuffix = regexp.MustCompile(`-\d+$`)

// parse extracts benchmark records from go test output.
func parse(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || fields[3] != "ns/op" {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		ns, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			continue
		}
		rec := Record{
			Name:       procSuffix.ReplaceAllString(fields[0], ""),
			Iterations: iters,
			NsPerOp:    ns,
		}
		// The tail is "<value> <unit>" pairs: B/op and allocs/op with
		// -benchmem, plus any custom ReportMetric columns.
		for i := 4; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				i-- // not a value: resynchronise one field on
				continue
			}
			switch unit := fields[i+1]; unit {
			case "B/op":
				rec.BytesPerOp = int64(v)
			case "allocs/op":
				rec.AllocsPerOp = int64(v)
			default:
				if rec.Metrics == nil {
					rec.Metrics = make(map[string]float64)
				}
				rec.Metrics[unit] = v
			}
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

func main() {
	label := flag.String("label", "", "tag every record with this snapshot label (e.g. the PR name)")
	flag.Parse()
	recs, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	applyLabel(recs, *label)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

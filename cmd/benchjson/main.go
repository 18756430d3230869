// Command benchjson converts `go test -bench -benchmem` text output
// into a JSON array of benchmark records, so benchmark history can be
// committed and diffed, and compares two such snapshots.
//
// Usage:
//
//	go test -bench=. -benchmem -count=5 -run='^$' ./... | benchjson > BENCH.json
//	go test -bench=. -benchmem -count=5 -run='^$' ./... | benchjson -compare BASE.json
//	benchjson -compare BASE.json < BENCH.json
//
// Non-benchmark lines (package headers, PASS/ok trailers) are ignored.
// Columns beyond ns/op, B/op and allocs/op (b.ReportMetric values such
// as ns/frame, or MB/s) are kept in each record's metrics map, keyed by
// unit. The -N GOMAXPROCS suffix is stripped from names so records stay
// comparable across machines.
//
// Repeated runs of one benchmark (-count=N) fold into one record: every
// figure is the median of the runs, and the record's range map holds
// each unit's [min, max] across them.
//
// -compare reads a base snapshot and prints, per benchmark and unit,
// the base and new medians with their ranges and the relative change.
// A change is flagged only when each median lies outside the other
// side's range; otherwise it is reported as within noise ("~"). The
// input on stdin may be go test output or a JSON snapshot.
//
// -label tags every record, so a snapshot says where it came from even
// after it is copied or concatenated with another.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark's result: a single run, or the fold of
// repeated runs.
type Record struct {
	Name        string  `json:"name"`
	Label       string  `json:"label,omitempty"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Metrics holds every other "<value> <unit>" column, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Runs is how many runs were folded into the record (omitted for a
	// single run), and Range each unit's [min, max] across them.
	Runs  int                   `json:"runs,omitempty"`
	Range map[string][2]float64 `json:"range,omitempty"`
}

// values returns every figure of the record keyed by unit.
func (r Record) values() map[string]float64 {
	out := map[string]float64{"ns/op": r.NsPerOp, "B/op": float64(r.BytesPerOp), "allocs/op": float64(r.AllocsPerOp)}
	for unit, v := range r.Metrics {
		out[unit] = v
	}
	return out
}

// span returns the record's [min, max] for unit: its folded range, or
// the single value of an unfolded record.
func (r Record) span(unit string) [2]float64 {
	if rg, ok := r.Range[unit]; ok {
		return rg
	}
	v := r.values()[unit]
	return [2]float64{v, v}
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

// parse extracts one record per benchmark line from go test output.
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

// fold merges the runs of each benchmark into one record, in order of
// first appearance: each figure becomes the median of the runs, and a
// benchmark run more than once gains its run count and ranges.
func fold(recs []Record) []Record {
	var order []string
	runs := make(map[string][]Record)
	for _, r := range recs {
		if _, ok := runs[r.Name]; !ok {
			order = append(order, r.Name)
		}
		runs[r.Name] = append(runs[r.Name], r)
	}
	out := make([]Record, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		if len(rs) == 1 {
			out = append(out, rs[0])
			continue
		}
		samples := make(map[string][]float64)
		var iters []float64
		for _, r := range rs {
			for unit, v := range r.values() {
				samples[unit] = append(samples[unit], v)
			}
			iters = append(iters, float64(r.Iterations))
		}
		f := Record{Name: name, Label: rs[0].Label, Runs: len(rs), Iterations: int64(median(iters)), Range: make(map[string][2]float64)}
		for unit, vs := range samples {
			med := median(vs)
			f.Range[unit] = [2]float64{slices.Min(vs), slices.Max(vs)}
			switch unit {
			case "ns/op":
				f.NsPerOp = med
			case "B/op":
				f.BytesPerOp = int64(med)
			case "allocs/op":
				f.AllocsPerOp = int64(med)
			default:
				if f.Metrics == nil {
					f.Metrics = make(map[string]float64)
				}
				f.Metrics[unit] = med
			}
		}
		out = append(out, f)
	}
	return out
}

// median returns the median of vs, the mean of the middle two for an
// even count.
func median(vs []float64) float64 {
	s := slices.Clone(vs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// compare writes one line per benchmark and unit present in both base
// and cur: the medians with their ranges, the relative change, and a
// verdict. The verdict is "~" unless each median lies outside the other
// side's range; then it says whether the change is better or worse,
// taking throughput units (per second) as higher-is-better and every
// other unit as lower-is-better.
func compare(w io.Writer, base, cur []Record) {
	byName := make(map[string]Record, len(base))
	for _, r := range base {
		byName[r.Name] = r
	}
	for _, c := range cur {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		bv, cv := b.values(), c.values()
		units := make([]string, 0, len(cv))
		for unit := range cv {
			if _, ok := bv[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			bm, cm := bv[unit], cv[unit]
			br, cr := b.span(unit), c.span(unit)
			verdict := "~"
			if (cm < br[0] || cm > br[1]) && (bm < cr[0] || bm > cr[1]) {
				higherBetter := strings.HasSuffix(unit, "/s") || strings.HasSuffix(unit, "/sec")
				if (cm > bm) == higherBetter {
					verdict = "better"
				} else {
					verdict = "worse"
				}
			}
			delta := "n/a"
			if bm != 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*(cm-bm)/bm)
			}
			fmt.Fprintf(w, "%-50s %-10s %12.4g [%.4g, %.4g] -> %12.4g [%.4g, %.4g] %8s %s\n",
				c.Name, unit, bm, br[0], br[1], cm, cr[0], cr[1], delta, verdict)
		}
	}
}

// load reads records from r: a JSON snapshot, or go test output to
// parse.
func load(r io.Reader) ([]Record, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '[' {
		var recs []Record
		err := json.Unmarshal(trimmed, &recs)
		return recs, err
	}
	return parse(bytes.NewReader(data))
}

func main() {
	label := flag.String("label", "", "tag every record with this snapshot label")
	base := flag.String("compare", "", "compare against this base snapshot instead of writing JSON")
	flag.Parse()
	recs, err := load(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	recs = fold(recs)
	if *base != "" {
		f, err := os.Open(*base)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		baseRecs, err := load(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		compare(os.Stdout, fold(baseRecs), recs)
		return
	}
	applyLabel(recs, *label)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

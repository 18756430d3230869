// Command perfbench is cpsmon's end-to-end benchmark. It runs one
// seeded workload for a fixed time, checks every output against a
// reference computed in set-up, and prints one JSON result line:
//
//	perfbench -monitord <binary> -workload ingest -seed 1 -seconds 10 -trace 0
//
// Workloads: ingest and paced drive a real monitord child process over
// loopback TCP; offline and campaign run in-process. With -trace 0 the
// result carries the end-to-end metrics; with -trace 1 it carries the
// per-layer ladder (see README.md for the layer→metric map).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// nproc bounds client connections and GOMAXPROCS: the generator and
// the daemon share the same cores.
var nproc = runtime.NumCPU()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// figures are the workload's own named figures (ingest_fps,
	// detect_p99_ms and its sample count, check_fps, failed_frac, …),
	// printed as comment lines before the result: informative, not
	// gated.
	figures map[string]metric
}

// endToEnd names the metrics every untraced run reports, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_fps", "frames/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ns_per_frame", "ns"},
	{"rss_peak_mb", "MB"},
}

// metricName is the shape every reported name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	monitord string
	workDir  string
}

// workload is one benchmark workload: setup builds its inputs and
// references, run measures it.
type workload struct {
	name  string
	setup func(cfg config, dir string) (instance, error)
}

// instance is a set-up workload ready to measure.
type instance interface {
	// run measures for cfg.seconds and fills the end-to-end metrics
	// other than setup_s.
	run(cfg config, acct *accounting) (map[string]metric, error)
	// inputs are the captures the traced ladder runs over.
	inputs() []*capture
	// close stops every process and removes the instance's files.
	close() error
}

var workloads = []workload{
	{"ingest", setupIngest},
	{"paced", setupPaced},
	{"offline", setupOffline},
	{"campaign", setupCampaign},
}

// setupReps is how many times set-up runs; setup_s is their median.
const setupReps = 9

func main() {
	cfg := config{}
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: ingest, paced, offline or campaign")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.StringVar(&cfg.monitord, "monitord", "", "monitord binary (required by ingest, paced and every traced run)")
	flag.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench-run", "scratch directory for archives, ledgers and sockets")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	res, err := runBenchmark(cfg)
	if err != nil {
		fatal(err)
	}
	names := make([]string, 0, len(res.figures))
	for name := range res.figures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("# %s %v %s\n", name, res.figures[name].Value, res.figures[name].Unit)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runBenchmark sets the workload up setupReps times, measures the last
// instance and tears everything down.
func runBenchmark(cfg config) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	if err := os.RemoveAll(cfg.workDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.workDir)

	var inst instance
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("setup-%d", rep))
		t0 := time.Now()
		in, err := wl.setup(cfg, dir)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			if err := in.close(); err != nil {
				return nil, err
			}
			continue
		}
		inst = in
	}

	acct := &accounting{}
	var metrics map[string]metric
	var err error
	if cfg.trace {
		metrics, err = runLadder(cfg, inst.inputs(), acct)
	} else {
		metrics, err = inst.run(cfg, acct)
		if metrics != nil {
			metrics["setup_s"] = metric{median(setups), "s"}
		}
	}
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	att, failed := acct.counts()
	if att == 0 {
		return nil, errors.New("no operation attempted")
	}
	if first := acct.firstError(); first != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed; first: %v\n", failed, att, first)
	}
	res := &result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: map[string]metric{}, figures: map[string]metric{}}
	declared := declaredUnits(cfg.trace)
	for name, v := range metrics {
		if _, ok := declared[name]; ok {
			res.Metrics[name] = v
		} else {
			res.figures[name] = v
		}
	}
	res.figures["failed_frac"] = metric{float64(failed) / float64(att), "ratio"}
	if err := checkNames(res.Metrics, declared); err != nil {
		return nil, err
	}
	if err := checkNames(res.figures, nil); err != nil {
		return nil, err
	}
	return res, nil
}

// declaredUnits maps the metric names a run reports in its result to
// their units: the end-to-end set untraced, the per-layer set traced.
func declaredUnits(traced bool) map[string]string {
	want := map[string]string{}
	if traced {
		for _, d := range perLayer {
			want[d.name] = d.unit
		}
	} else {
		for _, d := range endToEnd {
			want[d.name] = d.unit
		}
	}
	return want
}

// checkNames verifies every metric is well named, has a unit and a
// finite value, and — when want is not nil — that m holds exactly the
// declared names with their declared units.
func checkNames(m map[string]metric, want map[string]string) error {
	for name, v := range m {
		if u, ok := want[name]; want != nil && (!ok || u != v.Unit) {
			return fmt.Errorf("metric %q (unit %q) is not declared with that unit", name, v.Unit)
		}
		if v.Unit == "" {
			return fmt.Errorf("metric %q has no unit", name)
		}
		if !metricName.MatchString(name) {
			return fmt.Errorf("bad metric name %q", name)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %q is %v", name, v.Value)
		}
	}
	for name := range want {
		if _, ok := m[name]; !ok {
			return fmt.Errorf("metric %q not measured", name)
		}
	}
	return nil
}

// accounting counts attempted and failed operations; every timed
// operation's output is compared against its set-up reference.
type accounting struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	first     error
}

// record counts one operation, failed when err is not nil.
func (a *accounting) record(err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if err != nil {
		a.failed++
		if a.first == nil {
			a.first = err
		}
	}
}

func (a *accounting) counts() (attempted, failed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.attempted, a.failed
}

func (a *accounting) firstError() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.first
}

// median of xs; xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// table prints rows of name/value pairs aligned, for the traced run's
// accounting view.
func table(title string, rows [][2]string) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	for _, r := range rows {
		fmt.Fprintf(&b, "#   %-44s %s\n", r[0], r[1])
	}
	fmt.Print(b.String())
}

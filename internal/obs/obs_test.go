package obs

import (
	"bufio"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("re-registration returned a different counter handle")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(2.5)
	g.Inc()
	g.Dec()
	g.Add(-0.5)
	if got := g.Value(); got != 2 {
		t.Errorf("gauge = %v, want 2", got)
	}
}

func TestLabelIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("v_total", "h", Label{"rule", "R1"}, Label{"spec", "strict"})
	// Label order must not matter for identity.
	b := r.Counter("v_total", "h", Label{"spec", "strict"}, Label{"rule", "R1"})
	if a != b {
		t.Error("label order changed series identity")
	}
	c := r.Counter("v_total", "h", Label{"rule", "R2"}, Label{"spec", "strict"})
	if a == c {
		t.Error("distinct label values shared a series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "h")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	upper, cum := h.Buckets()
	if len(upper) != 3 {
		t.Fatalf("got %d bounds", len(upper))
	}
	// le=0.01 → {0.005, 0.01}; le=0.1 → +0.05; le=1 → +0.5; +Inf → +5.
	want := []uint64{2, 3, 4}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("cumulative[%d] = %d, want %d", i, cum[i], want[i])
		}
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); math.Abs(got-5.565) > 1e-9 {
		t.Errorf("sum = %v, want 5.565", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

// TestUpdatesAllocationFree pins the hot-path contract: counter,
// gauge and histogram updates perform zero allocations, so the
// monitor's frame→verdict path can be instrumented without
// regressing its zero-allocation guarantee.
func TestUpdatesAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h", "h", DefaultLatencyBuckets())
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(4)
		g.Add(-1)
		h.Observe(0.001)
		h.Observe(1e9) // +Inf bucket
	}); allocs != 0 {
		t.Errorf("metric updates allocate %.2f times per run, want 0", allocs)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	h := r.Histogram("h", "h", []float64{1, 10})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j % 20))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

// TestPrometheusGolden pins the text exposition byte-for-byte: stable
// family ordering (sorted by name), label escaping, and cumulative
// histogram buckets with the +Inf bucket equal to _count.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("cpsmon_frames_total", "Frames decoded.").Add(42)
	r.Counter("cpsmon_violations_total", `Violations per rule.`, Label{"rule", `a"b\c`}).Inc()
	r.Gauge("cpsmon_sessions_active", "Sessions\nactive.").Set(3)
	r.GaugeFunc("cpsmon_parked", "Parked sessions.", func() float64 { return 7 })
	h := r.Histogram("cpsmon_latency_seconds", "Batch latency.", []float64{0.001, 0.1}, Label{"stage", "ingest"})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP cpsmon_frames_total Frames decoded.
# TYPE cpsmon_frames_total counter
cpsmon_frames_total 42
# HELP cpsmon_latency_seconds Batch latency.
# TYPE cpsmon_latency_seconds histogram
cpsmon_latency_seconds_bucket{stage="ingest",le="0.001"} 1
cpsmon_latency_seconds_bucket{stage="ingest",le="0.1"} 2
cpsmon_latency_seconds_bucket{stage="ingest",le="+Inf"} 3
cpsmon_latency_seconds_sum{stage="ingest"} 2.0505
cpsmon_latency_seconds_count{stage="ingest"} 3
# HELP cpsmon_parked Parked sessions.
# TYPE cpsmon_parked gauge
cpsmon_parked 7
# HELP cpsmon_sessions_active Sessions\nactive.
# TYPE cpsmon_sessions_active gauge
cpsmon_sessions_active 3
# HELP cpsmon_violations_total Violations per rule.
# TYPE cpsmon_violations_total counter
cpsmon_violations_total{rule="a\"b\\c"} 1
`
	if got := sb.String(); got != want {
		t.Errorf("Prometheus text mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	// Encoding twice must be byte-identical (deterministic ordering).
	var sb2 strings.Builder
	r.WritePrometheus(&sb2)
	if sb.String() != sb2.String() {
		t.Error("encoding is not deterministic across calls")
	}
}

func TestEachVisitsDeterministically(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "h", Label{"x", "2"})
	r.Counter("b_total", "h", Label{"x", "1"})
	r.Counter("a_total", "h")
	var order []string
	r.Each(func(m Metric) {
		id := m.Name
		for _, l := range m.Labels {
			id += "/" + l.Value
		}
		order = append(order, id)
	})
	want := []string{"a_total", "b_total/1", "b_total/2"}
	if len(order) != len(want) {
		t.Fatalf("visited %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("visited %v, want %v", order, want)
		}
	}
}

func TestAdminHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "h").Inc()
	var ready atomic.Bool
	ready.Store(true)
	srv := httptest.NewServer(NewAdminHandler(r, ready.Load))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			sb.WriteString(sc.Text())
			sb.WriteByte('\n')
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "up_total 1") {
		t.Errorf("/metrics = %d:\n%s", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz ready = %d %q", code, body)
	}
	ready.Store(false)
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "draining") {
		t.Errorf("/healthz draining = %d %q, want 503 draining", code, body)
	}
	// pprof index and a cheap profile must be fetchable.
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/pprof/goroutine?debug=1"); code != 200 {
		t.Errorf("/debug/pprof/goroutine = %d", code)
	}
}

package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cpsmon/internal/flight"
)

func adminGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestHealthzStructuredBody pins the /healthz JSON contract: a
// structured state machine (ok | draining | degraded) carrying the SLO
// burn, while the status-code contract old
// scrapers rely on is preserved — 200 unless draining, 503 draining.
// A degraded SLO keeps the 200: flipping readiness would tell the load
// balancer to abandon a replica that is slow but alive.
func TestHealthzStructuredBody(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	health := Health{State: "ok", SLOBurn: 0.25, SLOTargetSeconds: 0.1}
	srv := httptest.NewServer(NewAdmin(AdminConfig{
		Registry: NewRegistry(),
		Ready:    ready.Load,
		Health:   func() Health { return health },
	}))
	defer srv.Close()

	decode := func(body string) Health {
		t.Helper()
		var h Health
		if err := json.Unmarshal([]byte(body), &h); err != nil {
			t.Fatalf("healthz body %q: %v", body, err)
		}
		return h
	}

	code, body := adminGet(t, srv, "/healthz")
	if h := decode(body); code != 200 || h.State != "ok" || h.SLOBurn != 0.25 || h.SLOTargetSeconds != 0.1 {
		t.Errorf("/healthz ok = %d %q", code, body)
	}

	health.State = "degraded"
	health.SLOBurn = 3.5
	code, body = adminGet(t, srv, "/healthz")
	if h := decode(body); code != 200 || h.State != "degraded" || h.SLOBurn != 3.5 {
		t.Errorf("/healthz degraded = %d %q, want 200 degraded", code, body)
	}

	ready.Store(false)
	code, body = adminGet(t, srv, "/healthz")
	if h := decode(body); code != 503 || h.State != "draining" {
		t.Errorf("/healthz draining = %d %q, want 503 draining", code, body)
	}
}

// TestPprofReachableDuringDrain: profiling is most valuable exactly
// when a replica is misbehaving and being drained, so the pprof and
// flight routes must keep answering after readiness flips.
func TestPprofReachableDuringDrain(t *testing.T) {
	rec := flight.New(flight.Config{RingSize: 16, SampleEvery: 1})
	srv := httptest.NewServer(NewAdmin(AdminConfig{
		Registry: NewRegistry(),
		Ready:    func() bool { return false },
		Flight:   func() any { return rec.Snapshot() },
	}))
	defer srv.Close()

	if code, _ := adminGet(t, srv, "/healthz"); code != 503 {
		t.Fatalf("/healthz = %d, want 503 while draining", code)
	}
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/goroutine?debug=1",
		"/debug/pprof/cmdline",
		"/debug/flight",
		"/metrics",
	} {
		if code, body := adminGet(t, srv, path); code != 200 {
			t.Errorf("%s during drain = %d %q, want 200", path, code, body)
		}
	}
}

// TestFlightSnapshotGolden pins the /debug/flight wire schema byte for
// byte: dashboards and monitorctl parse this JSON, so a field rename
// or re-tagging must show up as a deliberate golden update here.
func TestFlightSnapshotGolden(t *testing.T) {
	rec := flight.New(flight.Config{RingSize: 4, SampleEvery: 2, Exemplars: 2})
	veh := rec.Intern("veh-1")
	rule := rec.Intern("overspeed")
	rec.Sample()
	rec.Sample()
	base := time.Unix(1000, 0)
	rec.Record(3, veh, flight.StageIngest, 0, 9, base, 250*time.Microsecond)
	rec.Record(3, veh, flight.StageEval, rule, 9, base.Add(250*time.Microsecond), time.Millisecond)
	var stages [flight.NumStages]int64
	stages[flight.StageIngest] = int64(250 * time.Microsecond)
	stages[flight.StageEval] = int64(time.Millisecond)
	rec.Exemplar(3, veh, 9, base, 1250*time.Microsecond, stages)

	srv := httptest.NewServer(NewAdmin(AdminConfig{
		Registry: NewRegistry(),
		Flight:   func() any { return rec.Snapshot() },
	}))
	defer srv.Close()

	code, body := adminGet(t, srv, "/debug/flight")
	if code != 200 {
		t.Fatalf("/debug/flight = %d", code)
	}
	const golden = `{
  "ring_size": 4,
  "sample_every": 2,
  "spans_recorded": 2,
  "spans_dropped": 0,
  "batches_sampled": 1,
  "spans": [
    {
      "session": 3,
      "vehicle": "veh-1",
      "stage": "ingest",
      "seq": 9,
      "start_unix_nano": 1000000000000,
      "dur_nanos": 250000
    },
    {
      "session": 3,
      "vehicle": "veh-1",
      "stage": "eval",
      "rule": "overspeed",
      "seq": 9,
      "start_unix_nano": 1000000250000,
      "dur_nanos": 1000000
    }
  ],
  "slowest": [
    {
      "session": 3,
      "vehicle": "veh-1",
      "seq": 9,
      "start_unix_nano": 1000000000000,
      "e2e_nanos": 1250000,
      "stages": {
        "eval": 1000000,
        "ingest": 250000
      }
    }
  ]
}`
	if got := strings.TrimSpace(body); got != golden {
		t.Errorf("/debug/flight schema drifted.\ngot:\n%s\nwant:\n%s", got, golden)
	}
}

// TestFlightRouteAbsentWithoutRecorder: an admin surface wired without
// a recorder must 404 the route rather than serve "null".
func TestFlightRouteAbsentWithoutRecorder(t *testing.T) {
	srv := httptest.NewServer(NewAdmin(AdminConfig{Registry: NewRegistry()}))
	defer srv.Close()
	if code, _ := adminGet(t, srv, "/debug/flight"); code != 404 {
		t.Errorf("/debug/flight without recorder = %d, want 404", code)
	}
}

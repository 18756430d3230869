package fleet

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/obs"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// scrape encodes the registry and parses every sample line back into a
// value keyed by "name{labels}", failing the test on any line that is
// not valid Prometheus text exposition.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "# ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// sumFamily totals every series of one family, across label sets.
func sumFamily(samples map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// TestMetricsMatchStatsAndJournal is the observability e2e: concurrent
// sessions stream HIL captures through a server publishing on a shared
// registry and archiving losslessly. The scraped /metrics text must
// parse, its counters must equal the Server.Stats() snapshot and the
// monitor-level ground truth, and the archive — the deployment's audit
// trail — must hold exactly one record per produced event and one
// verdict per session.
func TestMetricsMatchStatsAndJournal(t *testing.T) {
	sessions := 8
	const dur = 60 * time.Second
	if testing.Short() {
		sessions = 4
	}
	logs := fleetScenarios(t, sessions, dur)

	// Offline ground truth: the violation counters on /metrics must
	// equal what CheckLog finds in the same captures.
	mon := offlineMonitor(t)
	var offlineViolations, totalFrames int
	for _, log := range logs {
		rep, err := mon.CheckLog(log, sigdb.Vehicle())
		if err != nil {
			t.Fatalf("CheckLog: %v", err)
		}
		for _, rr := range rep.Rules {
			offlineViolations += len(rr.Result.Violations)
		}
		totalFrames += len(log.Frames())
	}

	reg := obs.NewRegistry()
	archDir := t.TempDir()
	aw, err := archive.OpenWriter(archDir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer aw.Close()
	srv, addr := startServer(t, func(c *Config) {
		c.Metrics = reg
		c.Archiver = aw
		c.ArchiveBackpressure = true
	})

	var wg sync.WaitGroup
	var totalEvents atomic.Uint64
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialOptions(addr, Options{
				Vehicle: fmt.Sprintf("veh-%03d", i),
				Spec:    "strict",
				OnEvent: func(wire.Event) { totalEvents.Add(1) },
				Metrics: reg,
			})
			if err != nil {
				t.Errorf("session %d: %v", i, err)
				return
			}
			defer c.Close()
			if _, err := c.Replay(logs[i], 0); err != nil {
				t.Errorf("session %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	st := srv.Stats()
	samples := scrape(t, reg)

	// Every server counter must read identically through Stats() and
	// the exposition — they are the same registry cells.
	for _, c := range []struct {
		metric string
		stat   uint64
	}{
		{"cpsmon_fleet_sessions_opened_total", st.SessionsOpened},
		{"cpsmon_fleet_sessions_closed_total", st.SessionsClosed},
		{"cpsmon_fleet_sessions_refused_total", st.SessionsRefused},
		{"cpsmon_fleet_sessions_resumed_total", st.SessionsResumed},
		{"cpsmon_fleet_sessions_reaped_total", st.SessionsReaped},
		{"cpsmon_fleet_frames_ingested_total", st.FramesIngested},
		{"cpsmon_fleet_frames_dropped_total", st.FramesDropped},
		{"cpsmon_fleet_frames_rejected_total", st.FramesRejected},
		{"cpsmon_fleet_batches_blocked_total", st.BatchesBlocked},
		{"cpsmon_fleet_violations_emitted_total", st.ViolationsEmitted},
		{"cpsmon_fleet_events_emitted_total", st.EventsEmitted},
		{"cpsmon_fleet_gap_events_total", st.GapEvents},
		{"cpsmon_fleet_records_quarantined_total", st.RecordsQuarantined},
		{"cpsmon_fleet_dup_batches_dropped_total", st.DupBatchesDropped},
		{"cpsmon_fleet_ingest_batch_latency_seconds_count", st.IngestBatches},
	} {
		got, ok := samples[c.metric]
		if !ok {
			t.Errorf("metric %s missing from exposition", c.metric)
			continue
		}
		if got != float64(c.stat) {
			t.Errorf("%s = %v, Stats() says %d", c.metric, got, c.stat)
		}
	}
	if st.SessionsOpened != uint64(sessions) || st.EventsEmitted == 0 || st.ViolationsEmitted == 0 {
		t.Errorf("fixture too quiet for the assertions to bite: %+v", st)
	}
	if got := samples["cpsmon_fleet_sessions_active"]; got != 0 {
		t.Errorf("sessions_active gauge = %v after all sessions settled, want 0", got)
	}

	// Monitor-level metrics against ground truth: every HIL frame has a
	// database ID, so the per-spec decode counter must equal the
	// server's ingest counter — which in turn must be every frame the
	// scenarios produced — and per-rule violation counters must sum to
	// the violations emitted, which must be what the offline CheckLog
	// finds in the same captures.
	if st.FramesIngested != uint64(totalFrames) {
		t.Errorf("server ingested %d frames, captures hold %d", st.FramesIngested, totalFrames)
	}
	if got := sumFamily(samples, "cpsmon_monitor_frames_decoded_total"); got != float64(st.FramesIngested) {
		t.Errorf("monitor frames decoded = %v, want %d", got, st.FramesIngested)
	}
	if got := sumFamily(samples, "cpsmon_monitor_rule_violations_total"); got != float64(offlineViolations) {
		t.Errorf("per-rule violation counters sum to %v, offline CheckLog finds %d", got, offlineViolations)
	}
	if got := sumFamily(samples, "cpsmon_monitor_rule_violations_total"); got != float64(st.ViolationsEmitted) {
		t.Errorf("per-rule violation counters sum to %v, want %d", got, st.ViolationsEmitted)
	}
	if got := sumFamily(samples, "cpsmon_monitor_steps_total"); got == 0 {
		t.Error("monitor step counter never advanced")
	}

	// Client metrics surfaced on the same registry, per vehicle.
	if got := sumFamily(samples, "cpsmon_fleet_client_dial_attempts_total"); got != float64(sessions) {
		t.Errorf("client dial attempts = %v, want %d", got, sessions)
	}
	if got := sumFamily(samples, "cpsmon_fleet_client_replay_depth"); got != 0 {
		t.Errorf("replay depth = %v after settlement, want 0", got)
	}

	// Archive: one event record per produced event and one verdict
	// record per session, and the clients saw every produced event
	// exactly once. Shutdown drains the archive queue.
	if totalEvents.Load() != st.EventsEmitted {
		t.Errorf("clients received %d events, server emitted %d", totalEvents.Load(), st.EventsEmitted)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cat, err := archive.OpenCatalog(archDir)
	if err != nil {
		t.Fatal(err)
	}
	it := cat.Iter(archive.Query{Kinds: archive.KindEvent | archive.KindVerdict})
	defer it.Close()
	var archEvents uint64
	verdicts := make(map[uint64]int)
	for it.Next() {
		if r := it.Record(); r.Kind == archive.KindVerdict {
			verdicts[r.Session]++
		} else {
			archEvents++
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if archEvents != st.EventsEmitted {
		t.Errorf("archive holds %d events, server emitted %d", archEvents, st.EventsEmitted)
	}
	if len(verdicts) != sessions {
		t.Errorf("archive holds verdicts for %d sessions, want %d", len(verdicts), sessions)
	}
	for id, n := range verdicts {
		if n != 1 {
			t.Errorf("session %d archived %d verdicts, want exactly 1", id, n)
		}
	}
}

// TestWireMetricsOnSharedRegistry checks the codec counters surface
// alongside the fleet counters when the codec is instrumented on the
// server's registry.
func TestWireMetricsOnSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	wire.Instrument(reg)
	defer wire.Instrument(nil)
	_, addr := startServer(t, func(c *Config) { c.Metrics = reg })
	log := hilLog(t, 7, 2*time.Second, nil)
	c, err := DialOptions(addr, Options{Vehicle: "veh-wire", Spec: "strict", Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Replay(log, 0); err != nil {
		t.Fatal(err)
	}
	samples := scrape(t, reg)
	if got := samples[`cpsmon_wire_records_total{dir="rx",type="seq_batch"}`]; got == 0 {
		t.Error("no seq_batch records counted on rx")
	}
	if got := samples[`cpsmon_wire_records_total{dir="tx",type="seq_batch"}`]; got == 0 {
		t.Error("no seq_batch records counted on tx")
	}
	if got := sumFamily(samples, "cpsmon_wire_bytes_total"); got == 0 {
		t.Error("no wire bytes counted")
	}
}

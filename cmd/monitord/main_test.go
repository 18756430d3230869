package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/durable"
	"cpsmon/internal/fleet"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// syncBuffer lets the daemon goroutine and the test share an output
// buffer safely.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRE = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs the daemon on an ephemeral port and returns its
// address, its output buffer, and a shutdown function that asserts a
// clean exit.
func startDaemon(t *testing.T, args ...string) (string, *syncBuffer, func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), out)
	}()
	deadline := time.Now().Add(10 * time.Second)
	var addr string
	for addr == "" {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, out, func() {
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("daemon shutdown: %v\n%s", err, out.String())
			}
		case <-time.After(15 * time.Second):
			t.Fatalf("daemon did not exit:\n%s", out.String())
		}
		if !strings.Contains(out.String(), "sessions") {
			t.Errorf("no final stats printed:\n%s", out.String())
		}
	}
}

// testFrames synthesizes a short ordered capture with one violation
// burst.
func testFrames(t *testing.T) []can.Frame {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	for tick := 0; tick < 120; tick++ {
		on := 0.0
		if tick >= 40 && tick < 80 {
			on = 1
		}
		_ = bus.Set(sigdb.SigServiceACC, on)
		_ = bus.Set(sigdb.SigACCEnabled, on)
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	return bus.Log().Frames()
}

func TestDaemonServesSession(t *testing.T) {
	addr, _, shutdown := startDaemon(t)
	var events []wire.Event
	c, err := fleet.Dial(addr, "veh-1", "", func(e wire.Event) { events = append(events, e) })
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(testFrames(t)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	v, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	violated := false
	for _, rv := range v.Rules {
		violated = violated || rv.Violated
	}
	if !violated || len(events) == 0 {
		t.Errorf("expected a violation over the burst: verdict %+v, %d events", v, len(events))
	}
	shutdown()
}

func TestDaemonDrainsActiveSessionOnShutdown(t *testing.T) {
	addr, _, shutdown := startDaemon(t)
	c, err := fleet.Dial(addr, "veh-1", "strict", nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(testFrames(t)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	// No Finish: the daemon's drain must still verdict the session.
	shutdown()
	if _, err := c.Wait(); err != nil {
		t.Fatalf("no verdict from drain: %v", err)
	}
}

// TestDaemonGapFlagsAndResilienceStats runs the daemon with the
// field-network hardening flags and streams a capture with a hole in
// it: the session must receive a gap event and the shutdown stats must
// include the resilience line.
func TestDaemonGapFlagsAndResilienceStats(t *testing.T) {
	addr, out, shutdown := startDaemon(t,
		"-silence-gap", (5 * sigdb.FastPeriod).String(),
		"-idle-timeout", "1m", "-resume-grace", "30s", "-error-budget", "4")
	var gaps atomic.Int32
	c, err := fleet.Dial(addr, "veh-gap", "", func(e wire.Event) {
		if e.Kind == wire.EventGap {
			gaps.Add(1)
		}
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	// Two bursts of ticks with a 50-tick silence between them.
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	for _, tick := range []int{0, 1, 2, 3, 4, 55, 56, 57, 58, 59} {
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Send(bus.Log().Frames()); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if gaps.Load() == 0 {
		t.Error("no gap event for a 50-tick bus silence")
	}
	shutdown()
	if !strings.Contains(out.String(), "resilience:") {
		t.Errorf("no resilience stats line:\n%s", out.String())
	}
}

var adminRE = regexp.MustCompile(`admin on (\S+)`)

// adminGet fetches one admin endpoint and returns status and body.
func adminGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// scrapeAdmin fetches /metrics and parses every sample line into a
// value keyed by "name{labels}", failing on anything that is not valid
// Prometheus text exposition.
func scrapeAdmin(t *testing.T, adminURL string) map[string]float64 {
	t.Helper()
	status, body := adminGet(t, adminURL+"/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(body, "\n") {
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

// TestDaemonAdminAndJournal is the daemon-level observability e2e: a
// session streamed through a daemon running with -admin and -journal
// must be visible on /metrics (parseable, counters matching the
// session), /healthz must flip from ok to draining across shutdown,
// pprof must answer, and the journal must hold one JSON line per event
// plus the verdict.
func TestDaemonAdminAndJournal(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	addr, out, shutdown := startDaemon(t, "-admin", "127.0.0.1:0", "-journal", journalPath)
	m := adminRE.FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("daemon never reported its admin address:\n%s", out.String())
	}
	adminURL := "http://" + m[1]

	if status, body := adminGet(t, adminURL+"/healthz"); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz before drain: status %d body %q, want 200 ok", status, body)
	}

	var events atomic.Int32
	c, err := fleet.Dial(addr, "veh-obs", "strict", func(wire.Event) { events.Add(1) })
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	frames := testFrames(t)
	if err := c.Send(frames); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if events.Load() == 0 {
		t.Fatal("fixture produced no events; the journal assertions would be vacuous")
	}

	samples := scrapeAdmin(t, adminURL)
	if got := samples["cpsmon_fleet_frames_ingested_total"]; got != float64(len(frames)) {
		t.Errorf("frames_ingested = %v, want %d", got, len(frames))
	}
	if got := samples["cpsmon_fleet_sessions_opened_total"]; got != 1 {
		t.Errorf("sessions_opened = %v, want 1", got)
	}
	if got := samples[`cpsmon_wire_records_total{dir="rx",type="seq_batch"}`]; got == 0 {
		t.Error("wire codec counters absent from the admin registry")
	}
	if status, body := adminGet(t, adminURL+"/debug/pprof/"); status != http.StatusOK || !strings.Contains(body, "profile") {
		t.Errorf("/debug/pprof/ status %d", status)
	}

	shutdown()

	// The admin endpoint outlives the drain (it dies with the process),
	// but readiness must have flipped and metrics must stay scrapeable.
	if status, body := adminGet(t, adminURL+"/healthz"); status != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("/healthz after drain: status %d body %q, want 503 draining", status, body)
	}
	if got := scrapeAdmin(t, adminURL)["cpsmon_fleet_sessions_closed_total"]; got != 1 {
		t.Errorf("sessions_closed after drain = %v, want 1", got)
	}

	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatalf("read journal: %v", err)
	}
	var verdicts, eventLines int
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch kind := rec["kind"]; kind {
		case "verdict":
			verdicts++
			if rules, ok := rec["rules"].([]any); !ok || len(rules) == 0 {
				t.Errorf("verdict line has no rule rows: %q", line)
			}
		case "begin", "end", "gap":
			eventLines++
			if rec["rule"] == "" && kind != "gap" {
				t.Errorf("event line missing rule: %q", line)
			}
		default:
			t.Errorf("journal line with unknown kind %v: %q", kind, line)
		}
	}
	if verdicts != 1 {
		t.Errorf("journal holds %d verdict lines, want 1", verdicts)
	}
	if eventLines != int(events.Load()) {
		t.Errorf("journal holds %d event lines, client received %d events", eventLines, events.Load())
	}
}

// TestDaemonArchivesSessions runs the daemon with -archive-dir and
// streams one session through it: the directory must afterwards hold
// every ingested frame and the session's verdict, readable by a plain
// catalog open — the flag-level proof that the archive subsystem is
// wired end to end.
func TestDaemonArchivesSessions(t *testing.T) {
	dir := t.TempDir()
	addr, out, shutdown := startDaemon(t, "-archive-dir", dir)
	if !strings.Contains(out.String(), "monitord: archiving to "+dir) {
		t.Errorf("daemon never announced the archive directory:\n%s", out.String())
	}
	c, err := fleet.Dial(addr, "veh-arch", "", nil)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	frames := testFrames(t)
	if err := c.Send(frames); err != nil {
		t.Fatalf("Send: %v", err)
	}
	v, err := c.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	shutdown()
	if !strings.Contains(out.String(), "monitord: archive:") {
		t.Errorf("no archive stats line after shutdown:\n%s", out.String())
	}

	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	var archived uint64
	var verdicts int
	it := cat.Iter(archive.Query{})
	for it.Next() {
		switch rec := it.Record(); rec.Kind {
		case archive.KindFrames:
			archived += uint64(len(rec.Frames))
		case archive.KindVerdict:
			verdicts++
			if len(rec.Verdict.Rules) != len(v.Rules) {
				t.Errorf("archived verdict has %d rules, delivered %d", len(rec.Verdict.Rules), len(v.Rules))
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if archived != uint64(len(frames)) {
		t.Errorf("archive holds %d frames, want %d", archived, len(frames))
	}
	if verdicts != 1 {
		t.Errorf("archive holds %d verdicts, want 1", verdicts)
	}
}

// parkRawSession opens a raw session on addr, streams one batch,
// and drops the connection, leaving the session parked for resume.
func parkRawSession(t *testing.T, addr string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Hello{Version: wire.Version, Vehicle: "veh-park"}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rec, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rec.(wire.SessionGrant); !ok {
		t.Fatalf("got %T, want SessionGrant", rec)
	}
	if err := wire.Write(conn, wire.SeqBatch{Seq: 1, Frames: testFrames(t)}); err != nil {
		t.Fatal(err)
	}
	for {
		if rec, err = wire.Read(conn); err != nil {
			t.Fatal(err)
		}
		if _, ok := rec.(wire.Ack); ok {
			break
		}
		if _, ok := rec.(wire.SeqEvent); !ok {
			t.Fatalf("got %T, want Ack or SeqEvent", rec)
		}
	}
	conn.Close()
}

// TestDaemonDrainTimeoutBounded pins the -drain-timeout contract: a
// parked mid-stream session cannot hold shutdown hostage. Without a
// ledger the daemon force-closes it at the deadline and reports the
// loss; with one it exits promptly and the session survives in the
// state dir.
func TestDaemonDrainTimeoutBounded(t *testing.T) {
	t.Run("force-close", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		out := &syncBuffer{}
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "300ms", "-resume-grace", "2m"}, out)
		}()
		addr := awaitListening(t, out, errc)
		parkRawSession(t, addr)
		start := time.Now()
		cancel()
		select {
		case err := <-errc:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("run returned %v, want a shutdown-deadline error", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit within the drain bound")
		}
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("drain took %v with a 300ms deadline", d)
		}
		if !strings.Contains(out.String(), "force-closed") {
			t.Errorf("no force-close warning:\n%s", out.String())
		}
	})

	t.Run("preserve-with-ledger", func(t *testing.T) {
		stateDir := t.TempDir()
		ctx, cancel := context.WithCancel(context.Background())
		out := &syncBuffer{}
		errc := make(chan error, 1)
		go func() {
			errc <- run(ctx, []string{"-addr", "127.0.0.1:0", "-drain-timeout", "300ms", "-resume-grace", "2m", "-state-dir", stateDir}, out)
		}()
		addr := awaitListening(t, out, errc)
		parkRawSession(t, addr)
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("ledgered drain: %v\n%s", err, out.String())
			}
		case <-time.After(10 * time.Second):
			t.Fatal("daemon did not exit within the drain bound")
		}
		led, err := durable.Open(stateDir)
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		open := 0
		for _, s := range led.State().Sessions {
			if !s.Closed {
				open++
			}
		}
		if open != 1 {
			t.Errorf("ledger preserved %d open sessions across the drain, want 1", open)
		}
	})
}

// awaitListening waits for the daemon goroutine to report its address.
func awaitListening(t *testing.T, out *syncBuffer, errc chan error) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never reported its address:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDaemonJournalTornTailRestart proves a daemon killed mid-journal-
// line does not poison the next run: the restart repairs the tail,
// reports the cut, and every surviving line stays parseable.
func TestDaemonJournalTornTailRestart(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	addr, _, shutdown := startDaemon(t, "-journal", journalPath)
	c, err := fleet.Dial(addr, "veh-torn", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(testFrames(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Finish(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	shutdown()

	// The kill -9 we are simulating tears the last line in half.
	f, err := os.OpenFile(journalPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"kind":"verdict","rules":[{"ru`)
	f.Close()

	addr2, out2, shutdown2 := startDaemon(t, "-journal", journalPath)
	if !strings.Contains(out2.String(), "torn bytes") {
		t.Errorf("restart never reported the journal repair:\n%s", out2.String())
	}
	c2, err := fleet.Dial(addr2, "veh-torn-2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Send(testFrames(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Finish(); err != nil {
		t.Fatal(err)
	}
	c2.Close()
	shutdown2()

	data, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q unparseable after the torn restart: %v", line, err)
		}
		if rec["kind"] == "verdict" {
			verdicts++
		}
	}
	if verdicts != 2 {
		t.Errorf("journal holds %d verdicts across the restart, want 2", verdicts)
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	ctx := context.Background()
	notADir := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-delta", "sideways"},
		{"-rules", "/nonexistent.spec"},
		{"-db", "/nonexistent.netdb"},
		{"-queue", "-1"},
		{"-archive-dir", notADir},
		{"-state-dir", filepath.Join(t.TempDir(), "s"), "-drop"},
		{"-state-dir", notADir},
	} {
		if err := run(ctx, args, &syncBuffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestResolverRefusesArbitraryNames(t *testing.T) {
	res, err := newResolver("strict", sigdb.Vehicle())
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := range []string{"", "strict", "relaxed"} {
		if _, err := res(ok); err != nil {
			t.Errorf("resolve(%q): %v", ok, err)
		}
	}
	if _, err := res("/etc/passwd"); err == nil {
		t.Error("resolver accepted an arbitrary path")
	}
}

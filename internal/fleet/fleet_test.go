package fleet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/hil"
	"cpsmon/internal/rules"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// testResolver maps spec selections for tests: the empty name and
// "strict" select the paper's strict rules, "relaxed" the relaxed set.
func testResolver(name string) (*speclang.RuleSet, error) {
	switch name {
	case "", "strict":
		return rules.Strict()
	case "relaxed":
		return rules.Relaxed()
	default:
		return nil, fmt.Errorf("unknown spec %q", name)
	}
}

// startServer brings up a loopback fleet server and tears it down with
// the test.
func startServer(t testing.TB, mutate func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{
		DB:      sigdb.Vehicle(),
		Resolve: testResolver,
		Triage:  rules.DefaultTriage(),
		// Keep the teardown Shutdown fast when a test abandons a
		// session mid-stream; resume tests override this.
		ResumeGrace: 250 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		if !s.closed.Load() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			s.Shutdown(ctx)
		}
	})
	return s, s.Addr().String()
}

// injection is one fault window applied while generating a HIL log.
type injection struct {
	from, to time.Duration
	signals  map[string]float64
}

// hilLog runs the follow scenario on the HIL bench with the given
// fault windows and returns the captured bus log — the same trace
// source the paper's campaigns feed the offline monitor.
func hilLog(t testing.TB, seed int64, dur time.Duration, faults []injection) *can.Log {
	t.Helper()
	cfg := scenario.Follow(seed, dur)
	// Inject as on a real vehicle network: no type checking, so any
	// corrupt value goes through (Section V.C.3).
	cfg.TypeChecking = false
	bench, err := hil.New(cfg)
	if err != nil {
		t.Fatalf("hil.New: %v", err)
	}
	onTick := func(now time.Duration, b *hil.Bench) error {
		for _, f := range faults {
			switch now {
			case f.from:
				for name, v := range f.signals {
					if err := b.SetInjection(name, v); err != nil {
						return err
					}
				}
			case f.to:
				for name := range f.signals {
					b.ClearInjection(name)
				}
			}
		}
		return nil
	}
	if err := bench.Run(dur, onTick); err != nil {
		t.Fatalf("bench.Run: %v", err)
	}
	return bench.Log()
}

// fleetScenarios builds n distinct HIL scenario logs in parallel:
// different seeds, fault targets and windows, so concurrent sessions
// exercise the server with genuinely different traffic.
func fleetScenarios(t testing.TB, n int, dur time.Duration) []*can.Log {
	t.Helper()
	// Fault windows are fractions of the trace so a -short run's
	// shorter scenarios still exercise full inject-and-recover arcs.
	// Window edges land on the tick grid: the injection hook matches
	// tick times exactly.
	frac := func(num, den time.Duration) time.Duration {
		return dur * num / den / sigdb.FastPeriod * sigdb.FastPeriod
	}
	blind := []injection{{
		from: frac(1, 3), to: frac(2, 3),
		signals: map[string]float64{
			sigdb.SigVehicleAhead: 0,
			sigdb.SigTargetRange:  0,
			sigdb.SigTargetRelVel: 0,
		},
	}}
	corrupt := []injection{{
		from: frac(1, 4), to: frac(7, 12),
		signals: map[string]float64{sigdb.SigTargetRange: 4294967296.000001},
	}}
	runaway := []injection{{
		from: frac(5, 12), to: frac(3, 4),
		signals: map[string]float64{sigdb.SigACCSetSpeed: 1e9},
	}}
	clean := []injection(nil)
	kinds := [][]injection{blind, corrupt, runaway, clean}

	logs := make([]*can.Log, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			logs[i] = hilLog(t, int64(100+i), dur, kinds[i%len(kinds)])
		}(i)
	}
	wg.Wait()
	return logs
}

// offlineMonitor builds the monitor the server is configured with, for
// the ground-truth CheckLog runs.
func offlineMonitor(t testing.TB) *core.Monitor {
	t.Helper()
	rs, err := rules.Strict()
	if err != nil {
		t.Fatalf("rules.Strict: %v", err)
	}
	m, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
	if err != nil {
		t.Fatalf("core.New: %v", err)
	}
	return m
}

// endEventFromOffline renders one offline violation as the wire event
// the server must have emitted for it.
func endEventFromOffline(rr core.RuleReport, i int) wire.Event {
	v := rr.Result.Violations[i]
	return wire.Event{
		Kind:      wire.EventEnd,
		Rule:      rr.Name(),
		Time:      v.End,
		StartStep: uint32(v.StartStep),
		EndStep:   uint32(v.EndStep),
		Start:     v.Start,
		End:       v.End,
		Peak:      v.Peak,
		Msg:       v.Msg,
		Class:     uint8(rr.Classes[i]),
	}
}

// TestFleetLoopbackMatchesOffline is the acceptance test: eight
// concurrent HIL scenario logs streamed through one server must yield,
// per session and per rule, violations byte-for-byte identical to the
// offline CheckLog over the same frames.
func TestFleetLoopbackMatchesOffline(t *testing.T) {
	// Scenario length stays at 60s even under -short: the blind and
	// corrupt faults need tens of seconds of vehicle dynamics before
	// their consequences violate a rule, and a violation-free run would
	// make the equivalence assertion vacuous. -short trims the session
	// count instead.
	sessions := 8
	const dur = 60 * time.Second
	if testing.Short() {
		sessions = 4
	}
	logs := fleetScenarios(t, sessions, dur)
	mon := offlineMonitor(t)
	srv, addr := startServer(t, nil)

	type result struct {
		events  []wire.Event
		verdict *wire.Verdict
		err     error
	}
	results := make([]result, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &results[i]
			c, err := Dial(addr, fmt.Sprintf("veh-%03d", i), "strict", func(e wire.Event) {
				r.events = append(r.events, e)
			})
			if err != nil {
				r.err = err
				return
			}
			defer c.Close()
			r.verdict, r.err = c.Replay(logs[i], 0)
		}(i)
	}
	wg.Wait()

	totalFrames := uint64(0)
	totalViolations := 0
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("session %d: %v", i, r.err)
		}
		offline, err := mon.CheckLog(logs[i], sigdb.Vehicle())
		if err != nil {
			t.Fatalf("CheckLog %d: %v", i, err)
		}
		totalFrames += uint64(logs[i].Len())

		// Group the streamed end events by rule.
		streamed := make(map[string][]wire.Event)
		begins := make(map[string]int)
		for _, e := range r.events {
			switch e.Kind {
			case wire.EventBegin:
				begins[e.Rule]++
			case wire.EventEnd:
				streamed[e.Rule] = append(streamed[e.Rule], e)
			}
		}

		if len(r.verdict.Rules) != len(offline.Rules) {
			t.Fatalf("session %d: verdict carries %d rules, offline %d", i, len(r.verdict.Rules), len(offline.Rules))
		}
		for ri, rr := range offline.Rules {
			name := rr.Name()
			want := rr.Result.Violations
			got := streamed[name]
			if len(got) != len(want) {
				t.Fatalf("session %d rule %s: streamed %d violations, offline %d", i, name, len(got), len(want))
			}
			if begins[name] != len(want) {
				t.Errorf("session %d rule %s: %d begin events for %d violations", i, name, begins[name], len(want))
			}
			for vi := range want {
				wantBytes := wire.Marshal(endEventFromOffline(rr, vi))
				gotBytes := wire.Marshal(got[vi])
				if !bytes.Equal(gotBytes, wantBytes) {
					t.Errorf("session %d rule %s violation %d: wire bytes differ\n got %x (%+v)\nwant %x",
						i, name, vi, gotBytes, got[vi], wantBytes)
				}
			}
			totalViolations += len(want)

			// Verdict row must mirror the offline verdict and triage.
			rv := r.verdict.Rules[ri]
			if rv.Rule != name {
				t.Fatalf("session %d: verdict rule %d is %q, offline %q", i, ri, rv.Rule, name)
			}
			if rv.Violated != (rr.Verdict == core.Violated) {
				t.Errorf("session %d rule %s: verdict violated=%v, offline %v", i, name, rv.Violated, rr.Verdict)
			}
			if int(rv.Violations) != len(want) ||
				int(rv.Real) != rr.Count(core.ClassReal) ||
				int(rv.Transient) != rr.Count(core.ClassTransient) ||
				int(rv.Negligible) != rr.Count(core.ClassNegligible) {
				t.Errorf("session %d rule %s: verdict counts %+v, offline real=%d transient=%d negligible=%d",
					i, name, rv, rr.Count(core.ClassReal), rr.Count(core.ClassTransient), rr.Count(core.ClassNegligible))
			}
		}
		if r.verdict.FramesIngested != uint64(logs[i].Len()) {
			t.Errorf("session %d: ingested %d frames, sent %d", i, r.verdict.FramesIngested, logs[i].Len())
		}
		if r.verdict.FramesDropped != 0 || r.verdict.FramesRejected != 0 {
			t.Errorf("session %d: dropped=%d rejected=%d, want 0/0", i, r.verdict.FramesDropped, r.verdict.FramesRejected)
		}
	}
	if totalViolations == 0 {
		t.Error("no scenario produced violations; the equivalence assertion is vacuous")
	}

	st := srv.Stats()
	if st.SessionsOpened != uint64(sessions) || st.SessionsClosed != uint64(sessions) || st.SessionsActive != 0 {
		t.Errorf("sessions: %+v, want %d opened and closed", st, sessions)
	}
	if st.FramesIngested != totalFrames {
		t.Errorf("server ingested %d frames, want %d", st.FramesIngested, totalFrames)
	}
	if st.FramesDropped != 0 {
		t.Errorf("server dropped %d frames, want 0", st.FramesDropped)
	}
	if int(st.ViolationsEmitted) != totalViolations {
		t.Errorf("server emitted %d violations, want %d", st.ViolationsEmitted, totalViolations)
	}
	if st.IngestBatches == 0 || st.AvgIngestLatency() <= 0 {
		t.Errorf("no ingest latency recorded: %+v", st)
	}
}

func TestSessionLimit(t *testing.T) {
	_, addr := startServer(t, func(c *Config) { c.MaxSessions = 1 })
	c1, err := Dial(addr, "veh-1", "", nil)
	if err != nil {
		t.Fatalf("first session: %v", err)
	}
	defer c1.Close()
	if c2, err := Dial(addr, "veh-2", "", nil); err == nil {
		c2.Close()
		t.Fatal("second session accepted over MaxSessions=1")
	}
	// Finishing the first session frees the slot.
	if _, err := c1.Finish(); err != nil {
		t.Fatalf("finish: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := Dial(addr, "veh-3", "", nil)
		if err == nil {
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestVersionMismatchRefused pins the single-protocol handshake: a
// Hello or a Resume carrying any version but wire.Version is answered
// with an Error record and opens no session.
func TestVersionMismatchRefused(t *testing.T) {
	srv, addr := startServer(t, nil)
	opens := map[string]wire.Record{}
	for _, v := range []uint16{0, 1, 2, 3, 5, 99} {
		opens[fmt.Sprintf("hello-v%d", v)] = wire.Hello{Version: v, Vehicle: "v"}
	}
	for _, v := range []uint16{0, 2, 3, 5} {
		opens[fmt.Sprintf("resume-v%d", v)] = wire.Resume{Version: v, Token: 1}
	}
	for name, open := range opens {
		t.Run(name, func(t *testing.T) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := wire.Write(conn, open); err != nil {
				t.Fatal(err)
			}
			rec, err := wire.Read(conn)
			if err != nil {
				t.Fatalf("read refusal: %v", err)
			}
			e, ok := rec.(wire.Error)
			if !ok {
				t.Fatalf("got %T, want wire.Error", rec)
			}
			if !strings.Contains(e.Msg, "protocol version") {
				t.Errorf("refusal %q does not name the version", e.Msg)
			}
		})
	}
	if got := srv.Stats().SessionsOpened; got != 0 {
		t.Errorf("SessionsOpened = %d, want 0", got)
	}
}

func TestUnknownSpecRefused(t *testing.T) {
	_, addr := startServer(t, nil)
	if c, err := Dial(addr, "veh-1", "no-such-spec", nil); err == nil {
		c.Close()
		t.Fatal("unknown spec accepted")
	}
}

func TestOutOfOrderFramesRejectedNotFatal(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "veh-1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frames := []can.Frame{
		{Time: 50 * time.Millisecond, ID: sigdb.FrameVehicleDyn},
		{Time: 10 * time.Millisecond, ID: sigdb.FrameVehicleDyn}, // stale: rejected
		{Time: 50 * time.Millisecond, ID: sigdb.FrameVehicleDyn}, // equal time: accepted
		{Time: 60 * time.Millisecond, ID: sigdb.FrameVehicleDyn},
	}
	if err := c.Send(frames); err != nil {
		t.Fatal(err)
	}
	v, err := c.Finish()
	if err != nil {
		t.Fatalf("finish: %v", err)
	}
	if v.FramesRejected != 1 {
		t.Errorf("rejected = %d, want 1", v.FramesRejected)
	}
	if v.FramesIngested != 3 {
		t.Errorf("ingested = %d, want 3", v.FramesIngested)
	}
}

func TestDropModeSheds(t *testing.T) {
	s, err := NewServer(Config{DB: sigdb.Vehicle(), Resolve: testResolver, DropWhenFull: true, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{srv: s, queue: make(chan item, 1)}
	b := item{frames: make([]can.Frame, 7), enq: time.Now()}
	sess.enqueue(b) // fills the queue
	sess.enqueue(b) // must shed, not block
	if got := sess.dropped.Load(); got != 7 {
		t.Errorf("session dropped = %d, want 7", got)
	}
	if got := s.Stats().FramesDropped; got != 7 {
		t.Errorf("server dropped = %d, want 7", got)
	}
}

func TestBackpressureBlocks(t *testing.T) {
	s, err := NewServer(Config{DB: sigdb.Vehicle(), Resolve: testResolver, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	sess := &session{srv: s, queue: make(chan item, 1)}
	b := item{frames: make([]can.Frame, 3), enq: time.Now()}
	sess.enqueue(b) // fills the queue

	done := make(chan struct{})
	go func() {
		sess.enqueue(b) // must block until the worker drains
		close(done)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().BatchesBlocked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("enqueue never reported backpressure")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("enqueue returned while the queue was full")
	default:
	}
	<-sess.queue // the worker catches up
	<-done
	if got := s.Stats().FramesDropped; got != 0 {
		t.Errorf("backpressure mode dropped %d frames", got)
	}
}

func TestShutdownDrainsAndVerdicts(t *testing.T) {
	srv, addr := startServer(t, nil)
	log := hilLog(t, 7, 10*time.Second, nil)
	c, err := Dial(addr, "veh-1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(log.Frames()); err != nil {
		t.Fatal(err)
	}
	// Let the server take everything off the socket before the drain,
	// so the verdict covers the full stream deterministically.
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().FramesIngested < uint64(log.Len()) {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested %d of %d frames", srv.Stats().FramesIngested, log.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	v, err := c.Wait()
	if err != nil {
		t.Fatalf("no verdict after drain: %v", err)
	}
	if v.FramesIngested != uint64(log.Len()) {
		t.Errorf("drained verdict ingested %d frames, want %d", v.FramesIngested, log.Len())
	}
	// The drained verdict equals the offline verdict over the same log.
	offline, err := offlineMonitor(t).CheckLog(log, sigdb.Vehicle())
	if err != nil {
		t.Fatal(err)
	}
	for i, rr := range offline.Rules {
		if v.Rules[i].Violated != (rr.Verdict == core.Violated) {
			t.Errorf("rule %s: drained %v, offline %v", rr.Name(), v.Rules[i].Violated, rr.Verdict)
		}
	}
}

// TestReplaySurvivesMidStreamShutdown pins the client's recovery from
// a server drain while the vehicle is still uplinking: the write side
// breaks (the drained server closed the connection), but the partial
// verdict the server delivered first must win over the broken pipe.
func TestReplaySurvivesMidStreamShutdown(t *testing.T) {
	srv, addr := startServer(t, nil)
	log := hilLog(t, 7, 10*time.Second, nil)
	c, err := Dial(addr, "veh-1", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	half := log.Frames()[:log.Len()/2]
	if err := c.Send(half); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for srv.Stats().FramesIngested < uint64(len(half)) {
		if time.Now().After(deadline) {
			t.Fatalf("server ingested %d of %d frames", srv.Stats().FramesIngested, len(half))
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// Keep uplinking into the drained session until the socket breaks,
	// as a paced Replay would; Finish must still return the verdict.
	rest := log.Frames()[log.Len()/2:]
	for i := 0; i < 1000; i++ {
		if err := c.Send(rest); err != nil {
			break
		}
		time.Sleep(time.Millisecond)
	}
	v, err := c.Finish()
	if err != nil {
		t.Fatalf("no verdict after mid-stream drain: %v", err)
	}
	if v.FramesIngested != uint64(len(half)) {
		t.Errorf("partial verdict ingested %d frames, want %d", v.FramesIngested, len(half))
	}
}

func TestShutdownTwice(t *testing.T) {
	s, _ := startServer(t, nil)
	ctx := context.Background()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("first Shutdown: %v", err)
	}
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("second Shutdown accepted")
	}
}

// TestResumeUnknownTokenRefusedUnlessStopping pins how a server answers
// a resume for a token it does not hold: a running server refuses it,
// a terminal error for the client; a server that has begun shutting
// down drops the connection instead, because under a ledger the next
// process restores the session and the client must retry against it.
func TestResumeUnknownTokenRefusedUnlessStopping(t *testing.T) {
	s, err := NewServer(Config{DB: sigdb.Vehicle(), Resolve: testResolver})
	if err != nil {
		t.Fatal(err)
	}
	resume := func() (wire.Record, error) {
		client, server := net.Pipe()
		defer client.Close()
		go s.handleResume(server, bufio.NewReader(server), wire.Resume{Version: wire.Version, Token: 42})
		client.SetReadDeadline(time.Now().Add(5 * time.Second))
		return wire.Read(bufio.NewReader(client))
	}
	rec, err := resume()
	if _, ok := rec.(wire.Error); err != nil || !ok {
		t.Fatalf("running server answered %T (err %v), want a refusal", rec, err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, err = resume()
	if err == nil {
		t.Fatalf("stopping server answered %T %+v, want a dropped connection", rec, rec)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("stopping server neither answered nor dropped the connection")
	}
}

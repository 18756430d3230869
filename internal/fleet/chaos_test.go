package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/faultnet"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// chaosPlan derives a per-dial fault schedule for one chaos session.
// Send offsets stay where Plan put them — the uplink is hundreds of
// kilobytes — but recv offsets are remapped into the first couple of
// kilobytes, because the downlink (grant, acks, events, verdict) is
// tiny and a fault past its end would never fire. The remap re-marches
// the offsets so recv spans stay disjoint, which Wrap requires.
func chaosPlan(seed int64) [][]faultnet.Fault {
	plans := faultnet.Plan(seed, 3, 48<<10)
	for _, sch := range plans {
		var cur int64
		for j := range sch {
			if sch[j].Dir != faultnet.Recv {
				continue
			}
			sch[j].Offset = cur + 1 + sch[j].Offset%1024
			cur = sch[j].Offset + int64(sch[j].Len)
		}
	}
	return plans
}

// chaosRun collects what one chaos session observed.
type chaosRun struct {
	mu      sync.Mutex
	events  []wire.Event
	verdict *wire.Verdict
	stats   ClientStats
	applied int
	dials   int
}

func runChaosSession(addr string, seed int64, log *can.Log) (*chaosRun, error) {
	d := &faultnet.Dialer{Schedules: chaosPlan(seed)}
	run := &chaosRun{}
	var c *Client
	var err error
	// The very first dial is faulted too, and DialOptions does not
	// retry on its own; loop like a fleet agent's supervisor would.
	for attempt := 0; ; attempt++ {
		c, err = DialOptions(addr, Options{
			Vehicle: fmt.Sprintf("chaos-%03d", seed),
			Spec:    "strict",
			OnEvent: func(e wire.Event) {
				run.mu.Lock()
				run.events = append(run.events, e)
				run.mu.Unlock()
			},
			Dial:         d.Dial,
			MaxRetries:   12,
			Backoff:      5 * time.Millisecond,
			MaxBackoff:   100 * time.Millisecond,
			ReplayBuffer: 64,
			Seed:         seed,
			// A corrupted length prefix can wedge either side mid-record;
			// the stall guard (with the server's IdleTimeout) turns that
			// into a reconnect instead of a hang.
			StallTimeout: time.Second,
		})
		if err == nil {
			break
		}
		if attempt >= 8 {
			return nil, fmt.Errorf("dial: %w", err)
		}
	}
	defer c.Close()
	v, err := c.Replay(log, 0)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	run.verdict = v
	run.stats = c.Stats()
	run.applied = d.Applied()
	run.dials = d.Dials()
	return run, nil
}

// TestChaosTransportMatchesOffline is the robustness acceptance test:
// for every seeded fault schedule — drops, duplicates, reorders,
// corruption, truncation, stalls and disconnects on both directions,
// with eventual delivery guaranteed by clean dials after the schedule
// runs out — a resumed session's violation events must be byte-for-byte
// identical to the offline CheckLog over the same trace, with every
// frame counted and every event delivered exactly once.
func TestChaosTransportMatchesOffline(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	const dur = 60 * time.Second
	// One shared violating trace: a sensor-blindness injection, the
	// fault kind known to close real violations under the strict spec.
	frac := func(num, den time.Duration) time.Duration {
		return dur * num / den / sigdb.FastPeriod * sigdb.FastPeriod
	}
	log := hilLog(t, 42, dur, []injection{{
		from: frac(1, 3), to: frac(2, 3),
		signals: map[string]float64{
			sigdb.SigVehicleAhead: 0,
			sigdb.SigTargetRange:  0,
			sigdb.SigTargetRelVel: 0,
		},
	}})
	offline, err := offlineMonitor(t).CheckLog(log, sigdb.Vehicle())
	if err != nil {
		t.Fatalf("CheckLog: %v", err)
	}
	offlineViolations := 0
	for _, rr := range offline.Rules {
		offlineViolations += len(rr.Result.Violations)
	}
	if offlineViolations == 0 {
		t.Fatal("ground-truth trace has no violations; the equivalence sweep would be vacuous")
	}

	srv, addr := startServer(t, func(c *Config) {
		// Chaos reconnects complete within milliseconds; the grace only
		// has to outlive a backoff storm, and a short window keeps the
		// teardown drain fast when corrupted handshakes orphan sessions.
		c.ResumeGrace = 2 * time.Second
		c.IdleTimeout = time.Second
	})

	runs := make([]*chaosRun, seeds)
	errs := make([]error, seeds)
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for i := 0; i < seeds; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			runs[i], errs[i] = runChaosSession(addr, int64(i+1), log)
		}(i)
	}
	wg.Wait()

	faultsApplied, reconnects := 0, uint64(0)
	for i, run := range runs {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", i+1, errs[i])
		}
		faultsApplied += run.applied
		reconnects += run.stats.Reconnects

		streamed := make(map[string][]wire.Event)
		begins := make(map[string]int)
		for _, e := range run.events {
			switch e.Kind {
			case wire.EventBegin:
				begins[e.Rule]++
			case wire.EventEnd:
				streamed[e.Rule] = append(streamed[e.Rule], e)
			default:
				t.Errorf("seed %d: unexpected event kind %d (%+v)", i+1, e.Kind, e)
			}
		}
		for ri, rr := range offline.Rules {
			name := rr.Name()
			want := rr.Result.Violations
			got := streamed[name]
			if len(got) != len(want) {
				t.Fatalf("seed %d rule %s: streamed %d violations, offline %d (duplicate or lost events)",
					i+1, name, len(got), len(want))
			}
			if begins[name] != len(want) {
				t.Errorf("seed %d rule %s: %d begin events for %d violations", i+1, name, begins[name], len(want))
			}
			for vi := range want {
				wantBytes := wire.Marshal(endEventFromOffline(rr, vi))
				if !bytes.Equal(wire.Marshal(got[vi]), wantBytes) {
					t.Errorf("seed %d rule %s violation %d: wire bytes differ from offline", i+1, name, vi)
				}
			}
			rv := run.verdict.Rules[ri]
			if rv.Rule != name || int(rv.Violations) != len(want) {
				t.Errorf("seed %d rule %s: verdict row %+v, offline %d violations", i+1, name, rv, len(want))
			}
		}
		if run.verdict.FramesIngested != uint64(log.Len()) {
			t.Errorf("seed %d: ingested %d frames, sent %d", i+1, run.verdict.FramesIngested, log.Len())
		}
		if run.verdict.FramesDropped != 0 || run.verdict.FramesRejected != 0 {
			t.Errorf("seed %d: dropped=%d rejected=%d, want 0/0",
				i+1, run.verdict.FramesDropped, run.verdict.FramesRejected)
		}
	}
	// The sweep must actually have exercised the fault space: every
	// seeded schedule fires at least its first-dial faults, and the
	// disconnect-class ops force real resumes.
	if faultsApplied == 0 {
		t.Error("no faults applied; the chaos sweep was vacuous")
	}
	if reconnects == 0 {
		t.Error("no session ever reconnected; the resume path went unexercised")
	}
	t.Logf("chaos sweep: %d seeds, %d faults applied, %d reconnects, server stats %+v",
		seeds, faultsApplied, reconnects, srv.Stats())
}

// rawGrant performs a Hello by hand and returns the grant, for
// tests that need byte-level control of the uplink.
func rawGrant(t *testing.T, conn net.Conn, vehicle string) wire.SessionGrant {
	t.Helper()
	if err := wire.Write(conn, wire.Hello{Version: wire.Version, Vehicle: vehicle}); err != nil {
		t.Fatalf("hello: %v", err)
	}
	rec, err := wire.Read(conn)
	if err != nil {
		t.Fatalf("grant: %v", err)
	}
	g, ok := rec.(wire.SessionGrant)
	if !ok {
		t.Fatalf("grant: got %T, want wire.SessionGrant", rec)
	}
	return g
}

// corruptRecord marshals a record and flips one payload bit, so the
// framing survives but the checksum (or the decode) does not.
func corruptRecord(rec wire.Record) []byte {
	raw := wire.Marshal(rec)
	raw[len(raw)-6] ^= 0x40
	return raw
}

// awaitVerdict reads records until the session's verdict arrives,
// skipping acks and events.
func awaitVerdict(t *testing.T, conn net.Conn) wire.Verdict {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		rec, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("awaiting verdict: %v", err)
		}
		switch rec := rec.(type) {
		case wire.VerdictSeq:
			return rec.Verdict
		case wire.Ack, wire.SeqEvent:
		case wire.Error:
			t.Fatalf("awaiting verdict: server error: %s", rec.Msg)
		default:
			t.Fatalf("awaiting verdict: unexpected %T", rec)
		}
	}
}

// TestQuarantineMalformedRecord pins the error-budget path: a corrupted
// record is skipped and counted, and the stream keeps
// working — the same batch retransmitted cleanly still reaches the
// monitor exactly once.
func TestQuarantineMalformedRecord(t *testing.T) {
	srv, addr := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawGrant(t, conn, "veh-q")

	batch := wire.SeqBatch{Seq: 1, Frames: []can.Frame{{Time: 10 * time.Millisecond, ID: sigdb.FrameVehicleDyn}}}
	if _, err := conn.Write(corruptRecord(batch)); err != nil {
		t.Fatal(err)
	}
	// The corrupt copy was quarantined, not enqueued, so sequence 1 is
	// still unclaimed and the clean retransmission must be accepted.
	if err := wire.Write(conn, batch); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.FinishSeq{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	v := awaitVerdict(t, conn)
	if v.FramesIngested != 1 {
		t.Errorf("ingested %d frames, want 1", v.FramesIngested)
	}
	st := srv.Stats()
	if st.RecordsQuarantined != 1 {
		t.Errorf("RecordsQuarantined = %d, want 1", st.RecordsQuarantined)
	}
	if st.DupBatchesDropped != 0 {
		t.Errorf("DupBatchesDropped = %d, want 0", st.DupBatchesDropped)
	}
}

// TestQuarantineUnexpectedRecords pins that a validly-framed record
// with no business mid-stream (corruption can flip a type byte into
// another legal record) is quarantined, not terminal: a second Hello,
// a bare Event (a stored-record type, never sent on a connection) and
// a record of a retired type byte each cost one unit of error budget
// and the stream goes on.
func TestQuarantineUnexpectedRecords(t *testing.T) {
	srv, addr := startServer(t, nil)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rawGrant(t, conn, "veh-u")

	if err := wire.Write(conn, wire.Hello{Version: wire.Version, Vehicle: "veh-u"}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Event{Kind: wire.EventBegin, Rule: "Rule1", Time: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// 0x04 was the retired unsequenced Finish: now an unknown type.
	if _, err := conn.Write([]byte{1, 0, 0, 0, 0x04}); err != nil {
		t.Fatal(err)
	}
	batch := wire.SeqBatch{Seq: 1, Frames: []can.Frame{{Time: 10 * time.Millisecond, ID: sigdb.FrameVehicleDyn}}}
	if err := wire.Write(conn, batch); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.FinishSeq{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	v := awaitVerdict(t, conn)
	if v.FramesIngested != 1 {
		t.Errorf("ingested %d frames, want 1", v.FramesIngested)
	}
	if got := srv.Stats().RecordsQuarantined; got != 3 {
		t.Errorf("RecordsQuarantined = %d, want 3", got)
	}
}

// TestErrorBudgetSuspendsThenResumes drives a session past its error
// budget: the attachment is cut, but the session parks and a Resume
// with the grant token picks it back up to a clean verdict.
func TestErrorBudgetSuspendsThenResumes(t *testing.T) {
	srv, addr := startServer(t, func(c *Config) {
		c.ErrorBudget = 1
		c.ResumeGrace = 5 * time.Second
	})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	grant := rawGrant(t, conn, "veh-b")

	batch := wire.SeqBatch{Seq: 1, Frames: []can.Frame{{Time: 10 * time.Millisecond, ID: sigdb.FrameVehicleDyn}}}
	// Two malformed records: the first is quarantined under the budget
	// of one, the second exhausts it and the server cuts the attachment.
	if _, err := conn.Write(corruptRecord(batch)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(corruptRecord(batch)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		if _, err := wire.Read(conn); err != nil {
			break // attachment cut
		}
	}

	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.Write(conn2, wire.Resume{Version: wire.Version, Token: grant.Token}); err != nil {
		t.Fatal(err)
	}
	rec, err := wire.Read(conn2)
	if err != nil {
		t.Fatalf("resume grant: %v", err)
	}
	g2, ok := rec.(wire.SessionGrant)
	if !ok {
		t.Fatalf("resume grant: got %T", rec)
	}
	if g2.Session != grant.Session {
		t.Errorf("resume returned session %d, want %d", g2.Session, grant.Session)
	}
	if g2.AckSeq != 0 {
		t.Errorf("resume AckSeq = %d, want 0 (nothing was applied)", g2.AckSeq)
	}
	if err := wire.Write(conn2, batch); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn2, wire.FinishSeq{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	v := awaitVerdict(t, conn2)
	if v.FramesIngested != 1 {
		t.Errorf("ingested %d frames, want 1", v.FramesIngested)
	}
	st := srv.Stats()
	if st.SessionsResumed != 1 {
		t.Errorf("SessionsResumed = %d, want 1", st.SessionsResumed)
	}
	if st.RecordsQuarantined != 2 {
		t.Errorf("RecordsQuarantined = %d, want 2", st.RecordsQuarantined)
	}
}

// TestDrainDuringResume pins the shutdown/resume interlock: the server
// begins draining while the client sits in reconnect backoff with a
// parked session. The drain must wait for the resume, verdict the
// session through the new attachment, and close it exactly once.
func TestDrainDuringResume(t *testing.T) {
	srv, addr := startServer(t, func(c *Config) { c.ResumeGrace = 30 * time.Second })
	log := hilLog(t, 7, 10*time.Second, nil)
	// Dial 0 dies a quarter of the way into the uplink; dial 1 dies
	// instantly, pushing the client into a real backoff sleep — the
	// window the drain must tolerate. Dial 2 is clean.
	d := &faultnet.Dialer{Schedules: [][]faultnet.Fault{
		{{Op: faultnet.Disconnect, Dir: faultnet.Send, Offset: 16 << 10}},
		{{Op: faultnet.Disconnect, Dir: faultnet.Send, Offset: 0}},
	}}
	c, err := DialOptions(addr, Options{
		Vehicle:    "veh-drain",
		Dial:       d.Dial,
		MaxRetries: 8,
		Backoff:    200 * time.Millisecond,
		MaxBackoff: 200 * time.Millisecond,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	type res struct {
		v   *wire.Verdict
		err error
	}
	done := make(chan res, 1)
	go func() {
		v, err := c.Replay(log, 0)
		done <- res{v, err}
	}()

	// Wait for the doomed second dial: the client is now backing off
	// with its session parked server-side.
	deadline := time.Now().Add(10 * time.Second)
	for d.Dials() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("client never redialed (dials=%d)", d.Dials())
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown during backoff: %v (dials=%d active=%d awaited=%d stats=%+v)",
			err, d.Dials(), srv.active.Load(), srv.awaitedParked(), srv.Stats())
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("no verdict after drain-during-resume: %v", r.err)
	}
	if r.v.FramesIngested == 0 || r.v.FramesIngested > uint64(log.Len()) {
		t.Errorf("drained verdict ingested %d frames, want 1..%d", r.v.FramesIngested, log.Len())
	}
	st := srv.Stats()
	if st.SessionsResumed != 1 {
		t.Errorf("SessionsResumed = %d, want 1", st.SessionsResumed)
	}
	if st.SessionsClosed != 1 || st.SessionsReaped != 0 {
		t.Errorf("verdict not delivered exactly once: closed=%d reaped=%d, want 1/0",
			st.SessionsClosed, st.SessionsReaped)
	}
}

package durable

import (
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/fleet"
	"cpsmon/internal/hil"
	"cpsmon/internal/recordlog"
	"cpsmon/internal/rules"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

func testResolver(name string) (*speclang.RuleSet, error) {
	return rules.Strict()
}

// violatingLog renders one HIL follow scenario with a sensor-blindness
// window, the fault kind known to close real violations under the
// strict spec.
func violatingLog(t testing.TB, seed int64, dur time.Duration) *can.Log {
	t.Helper()
	frac := func(num, den time.Duration) time.Duration {
		return dur * num / den / sigdb.FastPeriod * sigdb.FastPeriod
	}
	cfg := scenario.Follow(seed, dur)
	cfg.TypeChecking = false
	bench, err := hil.New(cfg)
	if err != nil {
		t.Fatalf("hil.New: %v", err)
	}
	from, to := frac(1, 3), frac(2, 3)
	blind := []string{sigdb.SigVehicleAhead, sigdb.SigTargetRange, sigdb.SigTargetRelVel}
	onTick := func(now time.Duration, b *hil.Bench) error {
		switch now {
		case from:
			for _, name := range blind {
				if err := b.SetInjection(name, 0); err != nil {
					return err
				}
			}
		case to:
			for _, name := range blind {
				b.ClearInjection(name)
			}
		}
		return nil
	}
	if err := bench.Run(dur, onTick); err != nil {
		t.Fatalf("bench.Run: %v", err)
	}
	return bench.Log()
}

func offlineReport(t testing.TB, log *can.Log) *core.Report {
	t.Helper()
	rs, err := rules.Strict()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := m.CheckLog(log, sigdb.Vehicle())
	if err != nil {
		t.Fatalf("CheckLog: %v", err)
	}
	return rep
}

// daemon is one monitord-shaped process life: ledger, archive writer,
// recovered fleet server.
type daemon struct {
	led *Ledger
	aw  *archive.Writer
	srv *fleet.Server
	rs  RecoveryStats
}

// startDaemon performs the crash-safe startup sequence monitord uses:
// open ledger (epoch bump), open archive writer (heals torn segment
// tails), build the server around both, replay the archive into every
// unfinished ledgered session, then listen.
func startDaemon(t *testing.T, stateDir, archDir, addr string) *daemon {
	t.Helper()
	led, err := Open(stateDir)
	if err != nil {
		t.Fatalf("durable.Open: %v", err)
	}
	aw, err := archive.OpenWriter(archDir, archive.Options{})
	if err != nil {
		t.Fatalf("archive.OpenWriter: %v", err)
	}
	srv, err := fleet.NewServer(fleet.Config{
		DB:           sigdb.Vehicle(),
		Resolve:      testResolver,
		Triage:       rules.DefaultTriage(),
		Ledger:       led,
		Epoch:        led.Epoch(),
		SessionBase:  led.State().MaxSession,
		Archiver:     aw,
		ArchiveQueue: 1 << 14,
		ResumeGrace:  30 * time.Second,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	cat, err := archive.OpenCatalog(archDir)
	if err != nil {
		t.Fatalf("OpenCatalog: %v", err)
	}
	rs, err := Recover(led, cat, srv)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if err := srv.Listen(addr); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	return &daemon{led: led, aw: aw, srv: srv, rs: rs}
}

// crash tears the daemon down the hard way: an already-expired drain
// deadline force-closes every connection, and the shutdown-preserve
// rule keeps every undelivered session open in the ledger for the next
// life. (An in-process "crash" still flushes the archive writer on
// Close — the subprocess harness under cmd/monitord covers the true
// SIGKILL, where only the write-before-ack ordering protects state.)
func (d *daemon) crash(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d.srv.Shutdown(ctx) // deadline-exceeded error is the point
	if err := d.aw.Close(); err != nil {
		t.Fatalf("archive close: %v", err)
	}
	if err := d.led.Close(); err != nil {
		t.Fatalf("ledger close: %v", err)
	}
}

func (d *daemon) stop(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	d.aw.Close()
	d.led.Close()
}

// freePort reserves a loopback address that stays stable across the
// daemon restarts of one test.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestRecoverMidStreamResume is the package's acceptance test: a
// client streams a violating trace while the server is crashed and
// restarted mid-stream (twice when timing allows). The client's
// retries must carry the session across both process lives, the
// streamed violations must be byte-identical to the offline CheckLog,
// the verdict must arrive exactly once, and the archive must hold
// every frame exactly once despite the replays.
func TestRecoverMidStreamResume(t *testing.T) {
	dur := 60 * time.Second
	log := violatingLog(t, 42, dur)
	offline := offlineReport(t, log)
	offlineViolations := 0
	for _, rr := range offline.Rules {
		offlineViolations += len(rr.Result.Violations)
	}
	if offlineViolations == 0 {
		t.Fatal("ground-truth trace has no violations; the equivalence assertions would be vacuous")
	}

	stateDir, archDir := t.TempDir(), t.TempDir()
	addr := freePort(t)
	d := startDaemon(t, stateDir, archDir, addr)

	var mu sync.Mutex
	var events []wire.Event
	c, err := fleet.DialOptions(addr, fleet.Options{
		Vehicle: "veh-crash",
		Spec:    "strict",
		OnEvent: func(e wire.Event) {
			mu.Lock()
			events = append(events, e)
			mu.Unlock()
		},
		MaxRetries:   40,
		Backoff:      25 * time.Millisecond,
		MaxBackoff:   250 * time.Millisecond,
		StallTimeout: 2 * time.Second,
		Seed:         1,
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
		// 40x pacing stretches the 60s trace over ~1.5s of wall time, so
		// both crash checkpoints land mid-stream instead of racing a
		// full-speed replay.
		v, err := c.Replay(log, 40)
		done <- res{v, err}
	}()

	// Crash the daemon twice, each time roughly halfway through what the
	// current process life has left to ingest (its counter restarts at
	// zero with the process). If the replay outruns a checkpoint the
	// crash simply does not happen, which only weakens this particular
	// run, not the assertions.
	total := uint64(log.Len())
	replayed := uint64(0) // frames rebuilt from the archive, not re-ingested
	restarts := 0
	for round := 0; round < 2; round++ {
		checkpoint := (total - replayed) / 3
		if round > 0 {
			checkpoint = (total - replayed) / 2
		}
		deadline := time.Now().Add(30 * time.Second)
		crashed := false
		for time.Now().Before(deadline) {
			select {
			case r := <-done:
				done <- r // replay finished before the checkpoint
				deadline = time.Now()
				continue
			default:
			}
			if d.srv.Stats().FramesIngested >= checkpoint {
				d.crash(t)
				crashed = true
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if !crashed {
			break
		}
		d = startDaemon(t, stateDir, archDir, addr)
		restarts++
		if d.rs.SessionsFailed != 0 {
			t.Fatalf("restart %d: %d sessions failed recovery: %+v", restarts, d.rs.SessionsFailed, d.rs)
		}
		if d.rs.SessionsRecovered != 1 {
			t.Fatalf("restart %d: recovered %d sessions, want 1 (%+v)", restarts, d.rs.SessionsRecovered, d.rs)
		}
		replayed = d.rs.FramesReplayed
	}
	if restarts == 0 {
		t.Fatal("replay finished before the first crash checkpoint; the test exercised nothing")
	}

	r := <-done
	if r.err != nil {
		t.Fatalf("replay across %d restarts: %v", restarts, r.err)
	}
	if r.v.FramesIngested != total {
		t.Errorf("verdict ingested %d frames, sent %d", r.v.FramesIngested, total)
	}
	if r.v.FramesDropped != 0 || r.v.FramesRejected != 0 {
		t.Errorf("dropped=%d rejected=%d, want 0/0", r.v.FramesDropped, r.v.FramesRejected)
	}

	// Streamed events must match the offline ground truth exactly once,
	// byte for byte — across every crash.
	mu.Lock()
	streamed := make(map[string][]wire.Event)
	begins := make(map[string]int)
	for _, e := range events {
		switch e.Kind {
		case wire.EventBegin:
			begins[e.Rule]++
		case wire.EventEnd:
			streamed[e.Rule] = append(streamed[e.Rule], e)
		default:
			t.Errorf("unexpected event kind %d (%+v)", e.Kind, e)
		}
	}
	mu.Unlock()
	for ri, rr := range offline.Rules {
		name := rr.Name()
		want := rr.Result.Violations
		got := streamed[name]
		if len(got) != len(want) {
			t.Fatalf("rule %s: streamed %d violations, offline %d (duplicate or lost events across the crashes)",
				name, len(got), len(want))
		}
		if begins[name] != len(want) {
			t.Errorf("rule %s: %d begin events for %d violations", name, begins[name], len(want))
		}
		for vi, v := range want {
			wantEv := wire.Event{
				Kind: wire.EventEnd, Rule: name, Time: v.End,
				StartStep: uint32(v.StartStep), EndStep: uint32(v.EndStep),
				Start: v.Start, End: v.End, Peak: v.Peak, Msg: v.Msg,
				Class: uint8(rr.Classes[vi]),
			}
			if !bytes.Equal(wire.Marshal(got[vi]), wire.Marshal(wantEv)) {
				t.Errorf("rule %s violation %d: wire bytes differ from offline", name, vi)
			}
		}
		rv := r.v.Rules[ri]
		if rv.Rule != name || int(rv.Violations) != len(want) {
			t.Errorf("rule %s: verdict row %+v, offline %d violations", name, rv, len(want))
		}
	}

	st := d.srv.Stats()
	if st.SessionsRestored == 0 {
		t.Error("final daemon restored no session")
	}
	if st.LedgerErrors != 0 {
		t.Errorf("LedgerErrors = %d", st.LedgerErrors)
	}
	d.stop(t)

	// The archive — written across three process lives, with the client
	// resending unacknowledged batches after each crash — must hold every
	// frame exactly once and exactly one verdict.
	cat, err := archive.OpenCatalog(archDir)
	if err != nil {
		t.Fatal(err)
	}
	var frames uint64
	verdicts := 0
	it := cat.Iter(archive.Query{})
	for it.Next() {
		switch rec := it.Record(); rec.Kind {
		case archive.KindFrames:
			frames += uint64(len(rec.Frames))
		case archive.KindVerdict:
			verdicts++
			if !bytes.Equal(wire.Marshal(rec.Verdict), wire.Marshal(*r.v)) {
				t.Error("archived verdict differs from the delivered one")
			}
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if frames != total {
		t.Errorf("archive holds %d frames, want exactly %d (duplicates or loss across crashes)", frames, total)
	}
	if verdicts != 1 {
		t.Errorf("archive holds %d verdicts, want exactly 1", verdicts)
	}
	t.Logf("recovered across %d restarts: %+v", restarts, d.rs)
}

// TestRecoverFinalizedUndelivered rebuilds a session that crashed
// after its verdict was ledgered but before the client confirmed
// receiving it: the restart must regenerate the exact verdict from the
// archive, serve it to the resuming client, and not duplicate the
// already-archived verdict record.
func TestRecoverFinalizedUndelivered(t *testing.T) {
	log := violatingLog(t, 7, 30*time.Second)
	stateDir, archDir := t.TempDir(), t.TempDir()
	addr := freePort(t)
	d := startDaemon(t, stateDir, archDir, addr)

	// A raw session run to a delivered verdict.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.Hello{Version: wire.Version, Vehicle: "veh-fin", Spec: "strict"}); err != nil {
		t.Fatal(err)
	}
	rec, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	grant, ok := rec.(wire.SessionGrant)
	if !ok {
		t.Fatalf("grant: got %T", rec)
	}
	frames := log.Frames()
	half := len(frames) / 2
	if err := wire.Write(conn, wire.SeqBatch{Seq: 1, Frames: frames[:half]}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.SeqBatch{Seq: 2, Frames: frames[half:]}); err != nil {
		t.Fatal(err)
	}
	if err := wire.Write(conn, wire.FinishSeq{Seq: 2}); err != nil {
		t.Fatal(err)
	}
	var delivered wire.VerdictSeq
	var eventCount uint64
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
awaiting:
	for {
		rec, err := wire.Read(conn)
		if err != nil {
			t.Fatalf("awaiting verdict: %v", err)
		}
		switch rec := rec.(type) {
		case wire.VerdictSeq:
			delivered = rec
			break awaiting
		case wire.SeqEvent:
			eventCount++
		case wire.Ack:
		default:
			t.Fatalf("awaiting verdict: unexpected %T", rec)
		}
	}
	// Ack the verdict as fleet.Client does. Without the ack, a shutdown
	// that starts before the server finishes delivering waits for one
	// until its deadline.
	if err := wire.Write(conn, wire.Ack{Seq: delivered.EventSeq}); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	d.stop(t)

	// Forge the crash window: cut the ledger right after the verdict
	// record, discarding the delivered/closed records the clean shutdown
	// appended — the state a real crash between "verdict ledgered" and
	// "delivery confirmed" leaves behind.
	ledgerPath := filepath.Join(stateDir, ledgerName)
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	cutAt, at := int64(-1), int64(0)
	recordlog.Scan(data, minBody, maxBody, func(body []byte) bool {
		at += 4 + int64(len(body)) + 4
		if body[0] == recVerdict {
			cutAt = at
		}
		return true
	})
	if cutAt < 0 {
		t.Fatal("no verdict record in the ledger")
	}
	if err := os.WriteFile(ledgerPath, data[:cutAt], 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := startDaemon(t, stateDir, archDir, addr)
	if d2.rs.SessionsRecovered != 1 || d2.rs.SessionsFinalized != 1 || d2.rs.SessionsFailed != 0 {
		t.Fatalf("recovery stats = %+v, want 1 recovered, 1 finalized, 0 failed", d2.rs)
	}

	// The resuming client missed everything after its last event; the
	// re-serve must replay the tail and the identical verdict.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := wire.Write(conn2, wire.Resume{Version: wire.Version, Token: grant.Token, Epoch: grant.Epoch}); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(10 * time.Second))
	rec, err = wire.Read(conn2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if g, ok := rec.(wire.SessionGrant); !ok {
		t.Fatalf("resume: got %T (%+v)", rec, rec)
	} else if g.Session != grant.Session {
		t.Fatalf("resume returned session %d, want %d", g.Session, grant.Session)
	}
	var replayed uint64
	for {
		rec, err := wire.Read(conn2)
		if err != nil {
			t.Fatalf("re-delivery: %v", err)
		}
		if vs, ok := rec.(wire.VerdictSeq); ok {
			if !bytes.Equal(wire.Marshal(vs), wire.Marshal(delivered)) {
				t.Error("re-served verdict differs from the original delivery")
			}
			if err := wire.Write(conn2, wire.Ack{Seq: vs.EventSeq}); err != nil {
				t.Fatal(err)
			}
			break
		}
		if _, ok := rec.(wire.SeqEvent); ok {
			replayed++
		}
	}
	if replayed != eventCount {
		t.Errorf("re-serve replayed %d events, original delivered %d", replayed, eventCount)
	}
	d2.stop(t)

	// Exactly one verdict in the archive: the rebuilt session skipped
	// re-archiving the one its previous life already wrote.
	cat, err := archive.OpenCatalog(archDir)
	if err != nil {
		t.Fatal(err)
	}
	verdicts := 0
	it := cat.Iter(archive.Query{Kinds: archive.KindVerdict})
	for it.Next() {
		verdicts++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if verdicts != 1 {
		t.Errorf("archive holds %d verdicts, want exactly 1", verdicts)
	}
}

// TestResumeEpochRefused pins the stale-state guard: a Resume carrying
// an epoch newer than the server's ledger generation is refused, not
// silently served from rolled-back state.
func TestResumeEpochRefused(t *testing.T) {
	stateDir, archDir := t.TempDir(), t.TempDir()
	d := startDaemon(t, stateDir, archDir, "127.0.0.1:0")
	defer d.stop(t)
	addr := d.srv.Addr().String()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.Write(conn, wire.Resume{Version: wire.Version, Token: 12345, Epoch: d.led.Epoch() + 7}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	rec, err := wire.Read(conn)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := rec.(wire.Error)
	if !ok {
		t.Fatalf("got %T, want wire.Error", rec)
	}
	if want := "stale server state"; !bytes.Contains([]byte(e.Msg), []byte(want)) {
		t.Errorf("refusal %q does not mention %q", e.Msg, want)
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/durable"
	"cpsmon/internal/fleet"
	"cpsmon/internal/hil"
	"cpsmon/internal/rules"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// perLayer names the metrics every traced run reports, with units.
// Rungs are named after the module whose public calls they time, and
// after the flight stage where one exists; README.md maps each to the
// end-to-end metric it should move.
var perLayer = []struct{ name, unit string }{
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"wire.decode_allocs_per_frame", "allocs"},
	{"wire.bytes_per_frame", "B"},
	{"sigdb.unpack_ns_per_frame", "ns"},
	{"speclang.step_ns", "ns"},
	{"speclang.step_allocs", "allocs"},
	{"core.push_ns_per_frame", "ns"},
	{"core.push_allocs_per_frame", "allocs"},
	{"core.checklog_ns_per_frame", "ns"},
	{"core.checklog_allocs_per_frame", "allocs"},
	{"core.shadow_push_ns_per_frame", "ns"},
	{"fleet.apply_ns_per_frame", "ns"},
	{"fleet.loopback_ns_per_frame", "ns"},
	{"fleet.loopback_allocs_per_frame", "allocs"},
	{"fleet.batch_latency_p50_us", "us"},
	{"fleet.batches_blocked_frac", "ratio"},
	{"fleet.frames_per_batch", "frames"},
	{"fleet.archive_dropped", "count"},
	{"fleet.daemon_cpu_ns_per_frame", "ns"},
	{"fleet.daemon_allocs_per_frame", "allocs"},
	{"fleet.remainder_ns_per_frame", "ns"},
	{"archive.append_ns_per_frame", "ns"},
	{"archive.bytes_per_frame", "B"},
	{"archive.iter_ns_per_frame", "ns"},
	{"durable.watermark_ns", "ns"},
	{"durable.session_ns", "ns"},
	{"durable.fsyncs_per_session", "count"},
	{"recheck.serial_fps", "frames/s"},
	{"recheck.sharded_fps", "frames/s"},
	{"recheck.remainder_ns_per_frame", "ns"},
	{"hil.step_ns", "ns"},
	{"hil.step_allocs", "allocs"},
	{"flight.ingest_p50_us", "us"},
	{"flight.decode_p50_us", "us"},
	{"flight.eval_p50_us", "us"},
	{"flight.emit_p50_us", "us"},
	{"flight.archive_p50_us", "us"},
	{"flight.ledger_p50_us", "us"},
	{"flight.overhead_frac", "ratio"},
	{"loadgen.late_frac", "ratio"},
	{"loadgen.lag_p99_ms", "ms"},
	{"loadgen.cpu_ns_per_frame", "ns"},
}

// Traced-run durations: each in-process rung repeats its operation for
// rungTime, each daemon phase streams for phaseTime. A run shorter
// than phaseTime (the self-test) scales both down.
const (
	rungTime  = 300 * time.Millisecond
	phaseTime = 3 * time.Second
)

// rung is one timed public call: wall and CPU nanoseconds and heap
// allocations, each per unit of work.
type rung struct {
	ns, cpuNs, allocs float64
}

// measure repeats op — prepared fresh by prep outside the timing — for
// at least the rung time and five repetitions after a warm-up, and
// reports the median wall time, the mean CPU time and the mean
// allocations per unit.
func (l *ladder) measure(units int, prep func() (op func() error, done func(), err error)) (rung, error) {
	var walls []float64
	var cpu time.Duration
	var allocs uint64
	var m0, m1 runtime.MemStats
	start := time.Now()
	for rep := 0; rep < 6 || time.Since(start) < l.rungTime; rep++ {
		op, done, err := prep()
		if err != nil {
			return rung{}, err
		}
		runtime.ReadMemStats(&m0)
		c0 := selfCPU()
		t0 := time.Now()
		err = op()
		wall := time.Since(t0)
		c1 := selfCPU()
		runtime.ReadMemStats(&m1)
		if done != nil {
			done()
		}
		if err != nil {
			return rung{}, err
		}
		if rep == 0 {
			continue // warm-up
		}
		walls = append(walls, float64(wall.Nanoseconds())/float64(units))
		cpu += c1 - c0
		allocs += m1.Mallocs - m0.Mallocs
		if rep >= 200 {
			break
		}
	}
	n := float64(len(walls) * units)
	return rung{ns: median(walls), cpuNs: float64(cpu.Nanoseconds()) / n, allocs: float64(allocs) / n}, nil
}

// simple wraps an operation that needs no per-repetition preparation.
func simple(op func() error) func() (func() error, func(), error) {
	return func() (func() error, func(), error) { return op, nil, nil }
}

// ladder holds the traced run's inputs and results.
type ladder struct {
	cfg config
	dir string
	// rungTime and phaseTime are the package defaults, scaled down for
	// runs shorter than phaseTime.
	rungTime, phaseTime time.Duration
	cp                  *capture      // the workload's own capture
	runs                [][]can.Frame // cp cut into sendWindow runs
	frames              int
	m                   map[string]metric
	r                   map[string]rung // rung results by metric stem, for the accounting table
	// pool is a seeded HIL capture pool: the recheck corpus and the
	// daemon phases' ingest input, the same on every workload.
	pool []*capture
	// fsyncsPerFrame is the traced daemon's ledger fsyncs per ingested
	// frame, which spreads the durable rung over frames.
	fsyncsPerFrame float64
}

func (l *ladder) set(name string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			l.m[name] = metric{v, d.unit}
			return
		}
	}
	panic("undeclared per-layer metric " + name)
}

// runLadder is the traced run: in-process rungs over the workload's
// first capture, then traced and untraced monitord phases over seeded
// HIL and violation-dense captures.
func runLadder(cfg config, caps []*capture, acct *accounting) (map[string]metric, error) {
	l := &ladder{
		cfg:       cfg,
		dir:       filepath.Join(cfg.workDir, "ladder"),
		cp:        caps[0],
		runs:      cutRuns(caps[0].frames, sendWindow),
		frames:    len(caps[0].frames),
		m:         map[string]metric{},
		r:         map[string]rung{},
		rungTime:  rungTime,
		phaseTime: phaseTime,
	}
	if d := seconds(cfg.seconds); d < phaseTime {
		l.phaseTime = d
		l.rungTime = d / 10
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return nil, err
	}
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return nil, err
	}
	if l.pool, err = hilCaptures(cfg.seed, ingestCaptures, mon); err != nil {
		return nil, err
	}
	steps := []struct {
		name string
		fn   func(*accounting) error
	}{
		{"wire", l.wireRungs},
		{"sigdb", l.sigdbRung},
		{"speclang", l.speclangRung},
		{"core", l.coreRungs},
		{"fleet", l.fleetRungs},
		{"archive", l.archiveRungs},
		{"durable", l.durableRungs},
		{"hil", l.hilRung},
		{"daemon", l.daemonPhases},
	}
	for _, s := range steps {
		if err := s.fn(acct); err != nil {
			return nil, fmt.Errorf("%s rungs: %w", s.name, err)
		}
	}
	l.account()
	return l.m, nil
}

func (l *ladder) wireRungs(acct *accounting) error {
	recs := make([]wire.SeqBatch, len(l.runs))
	for i, r := range l.runs {
		recs[i] = wire.SeqBatch{Seq: uint64(i + 1), Frames: r}
	}
	var buf []byte
	enc, err := l.measure(l.frames, simple(func() error {
		buf = buf[:0]
		for _, r := range recs {
			buf = wire.Append(buf, r)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	stream := append([]byte(nil), buf...)
	dec, err := l.measure(l.frames, simple(func() error {
		rd := bytes.NewReader(stream)
		n := 0
		for {
			rec, err := wire.Read(rd)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			b, ok := rec.(wire.SeqBatch)
			if !ok {
				return fmt.Errorf("decoded %T, want SeqBatch", rec)
			}
			n += len(b.Frames)
		}
		if n != l.frames {
			return fmt.Errorf("decoded %d frames, encoded %d", n, l.frames)
		}
		return nil
	}))
	acct.record(err)
	if err != nil {
		return err
	}
	l.set("wire.encode_ns_per_frame", enc.ns)
	l.set("wire.decode_ns_per_frame", dec.ns)
	l.set("wire.decode_allocs_per_frame", dec.allocs)
	l.set("wire.bytes_per_frame", float64(len(stream))/float64(l.frames))
	l.r["wire.decode"] = dec
	return nil
}

func (l *ladder) sigdbRung(*accounting) error {
	db := sigdb.Vehicle()
	plan, err := db.CompilePlan(db.SignalNames())
	if err != nil {
		return err
	}
	dst := make([]float64, plan.Width())
	r, err := l.measure(l.frames, simple(func() error {
		for _, f := range l.cp.frames {
			if !plan.Knows(f.ID) {
				continue
			}
			if _, err := plan.UnpackInto(f.ID, f.Data, dst); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	l.set("sigdb.unpack_ns_per_frame", r.ns)
	return nil
}

// speclangRung steps the strict spec's stream checker over the capture
// latched onto the evaluation grid, as OnlineMonitor feeds it.
func (l *ladder) speclangRung(*accounting) error {
	db := sigdb.Vehicle()
	names := db.SignalNames()
	plan, err := db.CompilePlan(names)
	if err != nil {
		return err
	}
	var vals [][]float64
	var upd [][]bool
	latched := make([]float64, len(names))
	updated := make([]bool, len(names))
	for i := range latched {
		latched[i] = math.NaN() // not yet valid, as OnlineMonitor starts
	}
	pending := 0
	for _, f := range l.cp.frames {
		dst, ok := plan.Dst(f.ID)
		if !ok {
			continue
		}
		k := int((f.Time + sigdb.FastPeriod - 1) / sigdb.FastPeriod)
		for ; pending < k; pending++ {
			vals = append(vals, append([]float64(nil), latched...))
			upd = append(upd, append([]bool(nil), updated...))
			clear(updated)
		}
		if _, err := plan.UnpackInto(f.ID, f.Data, latched); err != nil {
			return err
		}
		for _, di := range dst {
			updated[di] = true
		}
	}
	rs, err := rules.Strict()
	if err != nil {
		return err
	}
	r, err := l.measure(len(vals), func() (func() error, func(), error) {
		sc, err := rs.NewStreamChecker(names, sigdb.FastPeriod, speclang.EvalOptions{DeltaMode: speclang.DeltaUpdateAware})
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			for k := range vals {
				if _, err := sc.Step(vals[k], upd[k]); err != nil {
					return err
				}
			}
			return nil
		}, nil, nil
	})
	if err != nil {
		return err
	}
	l.set("speclang.step_ns", r.ns)
	l.set("speclang.step_allocs", r.allocs)
	return nil
}

func (l *ladder) coreRungs(acct *accounting) error {
	db := sigdb.Vehicle()
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return err
	}
	push, err := l.measure(l.frames, func() (func() error, func(), error) {
		om, err := mon.Online(db)
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			for _, run := range l.runs {
				if _, _, err := om.PushFrames(run); err != nil {
					return err
				}
			}
			return nil
		}, nil, nil
	})
	if err != nil {
		return err
	}
	check, err := l.measure(l.frames, simple(func() error {
		rep, err := mon.CheckLog(l.cp.log, db)
		if err == nil {
			err = sameRules(verdictFromReport(rep), l.cp.verdict)
		}
		acct.record(err)
		return err
	}))
	if err != nil {
		return err
	}
	relaxed, err := rules.NewRelaxedMonitor()
	if err != nil {
		return err
	}
	shadow, err := l.measure(l.frames, func() (func() error, func(), error) {
		sh, err := relaxed.Shadow(db)
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			for _, run := range l.runs {
				if err := sh.Push(run); err != nil {
					return err
				}
				sh.EndBatch()
			}
			return nil
		}, sh.Close, nil
	})
	if err != nil {
		return err
	}
	l.set("core.push_ns_per_frame", push.ns)
	l.set("core.push_allocs_per_frame", push.allocs)
	l.set("core.checklog_ns_per_frame", check.ns)
	l.set("core.checklog_allocs_per_frame", check.allocs)
	l.set("core.shadow_push_ns_per_frame", shadow.ns)
	l.r["core.push"] = push
	return nil
}

// fleetConfig is a plain in-process server on the strict spec.
func fleetConfig() fleet.Config {
	return fleet.Config{
		DB:      sigdb.Vehicle(),
		Resolve: func(string) (*speclang.RuleSet, error) { return rules.Strict() },
		Triage:  rules.DefaultTriage(),
	}
}

func (l *ladder) fleetRungs(acct *accounting) error {
	led, err := durable.Open(filepath.Join(l.dir, "apply-ledger"))
	if err != nil {
		return err
	}
	defer led.Close()
	// A ledgered server needs an archive to rebuild from; a restorer
	// never writes to it.
	aw, err := archive.OpenWriter(filepath.Join(l.dir, "apply-archive"), archive.Options{})
	if err != nil {
		return err
	}
	defer aw.Close()
	cfg := fleetConfig()
	cfg.Ledger = led
	cfg.Archiver = aw
	srv, err := fleet.NewServer(cfg)
	if err != nil {
		return err
	}
	defer shutdown(srv)
	id := uint64(0)
	apply, err := l.measure(l.frames, func() (func() error, func(), error) {
		id++
		r, err := srv.NewRestorer(fleet.RestoredSession{ID: id, Token: id, Proto: wire.Version, Vehicle: "apply"})
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			for _, run := range l.runs {
				if err := r.PushFrames(run); err != nil {
					return err
				}
			}
			return nil
		}, r.Abort, nil
	})
	if err != nil {
		return err
	}

	loop, err := fleet.NewServer(fleetConfig())
	if err != nil {
		return err
	}
	defer shutdown(loop)
	if err := loop.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	addr := loop.Addr().String()
	lb, err := l.measure(l.frames, simple(func() error {
		err := runSession(addr, "loopback", l.cp, nil)
		acct.record(err)
		return err
	}))
	if err != nil {
		return err
	}
	l.set("fleet.apply_ns_per_frame", apply.ns)
	l.set("fleet.loopback_ns_per_frame", lb.ns)
	l.set("fleet.loopback_allocs_per_frame", lb.allocs)
	l.r["fleet.apply"] = apply
	l.r["fleet.loopback"] = lb
	return nil
}

func shutdown(srv *fleet.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // teardown of a measured server; its error changes nothing reported
}

func (l *ladder) archiveRungs(acct *accounting) error {
	n := 0
	var bytesWritten int64
	app, err := l.measure(l.frames, func() (func() error, func(), error) {
		n++
		dir := filepath.Join(l.dir, fmt.Sprintf("append-%d", n))
		w, err := archive.OpenWriter(dir, archive.Options{})
		if err != nil {
			return nil, nil, err
		}
		return func() error {
				for _, run := range l.runs {
					if err := w.ArchiveFrames(1, "append", run); err != nil {
						return err
					}
				}
				return nil
			}, func() {
				if err := w.Close(); err == nil && bytesWritten == 0 {
					bytesWritten = dirSize(dir)
				}
				os.RemoveAll(dir)
			}, nil
	})
	if err != nil {
		return err
	}

	// The read side runs over the seeded HIL pool, archived one session
	// per capture as the offline workload archives its corpus.
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return err
	}
	corpus := l.pool
	total := 0
	for _, c := range corpus {
		total += len(c.frames)
	}
	cat, err := archiveCaptures(filepath.Join(l.dir, "corpus"), corpus, mon)
	if err != nil {
		return err
	}
	iter, err := l.measure(total, simple(func() error {
		it := cat.Iter(archive.Query{})
		defer it.Close()
		got := 0
		for it.Next() {
			got += len(it.Record().Frames)
		}
		if err := it.Err(); err != nil {
			return err
		}
		if got != total {
			return fmt.Errorf("iterated %d frames, archived %d", got, total)
		}
		return nil
	}))
	if err != nil {
		return err
	}
	recheckFPS := func(workers int) (float64, error) {
		r, err := l.measure(total, simple(func() error {
			_, err := recheckPass(cat, corpus, workers, acct)
			return err
		}))
		return 1e9 / r.ns, err
	}
	serial, err := recheckFPS(1)
	if err != nil {
		return err
	}
	sharded, err := recheckFPS(nproc)
	if err != nil {
		return err
	}
	l.set("archive.append_ns_per_frame", app.ns)
	l.set("archive.bytes_per_frame", float64(bytesWritten)/float64(l.frames))
	l.set("archive.iter_ns_per_frame", iter.ns)
	l.set("recheck.serial_fps", serial)
	l.set("recheck.sharded_fps", sharded)
	l.set("recheck.remainder_ns_per_frame", 1e9/serial-iter.ns-l.r["core.push"].ns)
	l.r["archive.append"] = app
	return nil
}

func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// durableRungs time the ledger's two write paths: a watermark append
// with its group-commit fsync, and one session's open, verdict,
// delivery and close records.
func (l *ladder) durableRungs(*accounting) error {
	led, err := durable.Open(filepath.Join(l.dir, "ledger"))
	if err != nil {
		return err
	}
	defer led.Close()
	if err := led.SessionOpened(1, 1, wire.Version, "wm", ""); err != nil {
		return err
	}
	const marks = 50
	seq := uint64(0)
	wm, err := l.measure(marks, simple(func() error {
		for i := 0; i < marks; i++ {
			seq++
			if err := led.Watermark(1, seq, seq*100, 0); err != nil {
				return err
			}
			if err := led.Sync(); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	const sessions = 10
	id := uint64(1)
	sess, err := l.measure(sessions, simple(func() error {
		for i := 0; i < sessions; i++ {
			id++
			if err := led.SessionOpened(id, id, wire.Version, "s", ""); err != nil {
				return err
			}
			if err := led.VerdictReached(id, 0, l.cp.verdict); err != nil {
				return err
			}
			if err := led.VerdictDelivered(id); err != nil {
				return err
			}
			if err := led.SessionClosed(id); err != nil {
				return err
			}
		}
		return nil
	}))
	if err != nil {
		return err
	}
	l.set("durable.watermark_ns", wm.ns)
	l.set("durable.session_ns", sess.ns)
	l.r["durable.watermark"] = wm
	return nil
}

func (l *ladder) hilRung(*accounting) error {
	const steps = 1000
	r, err := l.measure(steps, func() (func() error, func(), error) {
		b, err := hil.New(scenario.Follow(l.cfg.seed, 30*time.Second))
		if err != nil {
			return nil, nil, err
		}
		return func() error {
			for i := 0; i < steps; i++ {
				if err := b.Step(); err != nil {
					return err
				}
			}
			return nil
		}, nil, nil
	})
	if err != nil {
		return err
	}
	l.set("hil.step_ns", r.ns)
	l.set("hil.step_allocs", r.allocs)
	return nil
}

// daemonPhases runs monitord twice. Untraced (-flight-sample 0) it
// gives the base of the accounting: CPU and allocations per ingested
// frame. Traced (-flight-sample 1) it runs a paced phase — batch
// latency and the generator's own clocks — then an ingest phase whose
// fleet counters and flight spans are scraped.
func (l *ladder) daemonPhases(acct *accounting) error {
	dense, err := denseCaptures(l.cfg.seed, pacedVehicles)
	if err != nil {
		return err
	}

	u, err := startDaemon(l.cfg.monitord, filepath.Join(l.dir, "untraced"), 0)
	if err != nil {
		return err
	}
	defer u.stop()
	a0, err := u.mallocs()
	if err != nil {
		return err
	}
	c0 := taskCPU(u.cmd.Process.Pid)
	plain := ingestLoop(u.addr, l.pool, time.Now(), l.phaseTime, acct, nil)
	cpu := taskCPU(u.cmd.Process.Pid) - c0
	a1, err := u.mallocs()
	if err != nil {
		return err
	}
	if err := u.stop(); err != nil {
		return err
	}
	if plain.frames == 0 {
		return fmt.Errorf("untraced ingest completed no session")
	}
	l.set("fleet.daemon_cpu_ns_per_frame", float64(cpu.Nanoseconds())/float64(plain.frames))
	l.set("fleet.daemon_allocs_per_frame", (a1-a0)/float64(plain.frames))

	t, err := startDaemon(l.cfg.monitord, filepath.Join(l.dir, "traced"), 1)
	if err != nil {
		return err
	}
	defer t.stop()
	s0, err := t.scrapeMetrics()
	if err != nil {
		return err
	}
	paced := pacedLoop(t.addr, dense, time.Now(), l.phaseTime, acct, nil)
	s1, err := t.scrapeMetrics()
	if err != nil {
		return err
	}
	traced := ingestLoop(t.addr, l.pool, time.Now(), l.phaseTime, acct, nil)
	s2, err := t.scrapeMetrics()
	if err != nil {
		return err
	}
	snap, err := t.flightSnapshot()
	if err != nil {
		return err
	}
	if err := t.stop(); err != nil {
		return err
	}

	l.set("fleet.batch_latency_p50_us", 1e6*histQuantile(s0, s1, "cpsmon_fleet_ingest_batch_latency_seconds", 0.5))
	delta := func(family string) float64 { return s2.sum(family) - s1.sum(family) }
	batches := delta("cpsmon_fleet_ingest_batch_latency_seconds_count")
	if batches == 0 {
		return fmt.Errorf("traced ingest phase scraped no batches")
	}
	l.set("fleet.batches_blocked_frac", delta("cpsmon_fleet_batches_blocked_total")/batches)
	l.set("fleet.frames_per_batch", delta("cpsmon_fleet_frames_ingested_total")/batches)
	l.set("fleet.archive_dropped", delta("cpsmon_fleet_archive_dropped_total"))
	if opened := delta("cpsmon_fleet_sessions_opened_total"); opened > 0 {
		l.set("durable.fsyncs_per_session", delta("cpsmon_durable_ledger_fsyncs_total")/opened)
	} else {
		return fmt.Errorf("traced ingest phase opened no session")
	}
	l.fsyncsPerFrame = delta("cpsmon_durable_ledger_fsyncs_total") / delta("cpsmon_fleet_frames_ingested_total")

	spans := map[string][]float64{}
	for _, sp := range snap.Spans {
		if sp.Rule == "" {
			spans[sp.Stage] = append(spans[sp.Stage], float64(sp.Dur)/1e3)
		}
	}
	for _, st := range []string{"ingest", "decode", "eval", "emit", "archive", "ledger"} {
		l.set("flight."+st+"_p50_us", median(spans[st]))
	}
	plainFPS := float64(plain.frames) / plain.elapsed.Seconds()
	tracedFPS := float64(traced.frames) / traced.elapsed.Seconds()
	l.set("flight.overhead_frac", 1-tracedFPS/plainFPS)

	l.set("loadgen.late_frac", paced.lateFrac())
	l.set("loadgen.lag_p99_ms", quantile(paced.lagMs, 0.99))
	if paced.frames > 0 {
		l.set("loadgen.cpu_ns_per_frame", float64(paced.genCPU.Nanoseconds())/float64(paced.frames))
	} else {
		return fmt.Errorf("traced paced phase completed no session")
	}
	return nil
}

// account names where the untraced daemon's CPU per ingested frame
// goes: the rungs on its path, by CPU time, and the remainder —
// transport and scheduling — that no rung covers. It also answers how
// a single-session replay's allocations split across layers, and
// whether sharded recheck beats serial on the machine's cores.
func (l *ladder) account() {
	base := l.m["fleet.daemon_cpu_ns_per_frame"].Value
	dec := l.r["wire.decode"]
	apply := l.r["fleet.apply"]
	app := l.r["archive.append"]
	durNs := l.r["durable.watermark"].cpuNs * l.fsyncsPerFrame
	rem := base - dec.cpuNs - apply.cpuNs - app.cpuNs - durNs
	l.set("fleet.remainder_ns_per_frame", rem)
	row := func(name string, v float64) [2]string {
		return [2]string{name, fmt.Sprintf("%9.1f ns/frame  %5.1f%%", v, 100*v/base)}
	}
	table(fmt.Sprintf("ingest accounting: monitord CPU %.1f ns/frame (untraced), by rung CPU time", base), [][2]string{
		row("wire.decode", dec.cpuNs),
		row("fleet.apply (session apply: decode plan, stream step, tally)", apply.cpuNs),
		row("  core.push, its own rung (runs inside apply)", l.r["core.push"].cpuNs),
		row("archive.append", app.cpuNs),
		row("durable (watermark+fsync x fsyncs/frame)", durNs),
		row("fleet.remainder (transport, scheduling)", rem),
	})
	per := float64(l.frames)
	lb := l.r["fleet.loopback"]
	table(fmt.Sprintf("allocations of one %d-frame single-session replay (client and server in-process)", l.frames), [][2]string{
		{"fleet.loopback (whole session)", fmt.Sprintf("%9.0f", lb.allocs*per)},
		{"wire.decode (server side)", fmt.Sprintf("%9.0f", dec.allocs*per)},
		{"fleet.apply", fmt.Sprintf("%9.0f", apply.allocs*per)},
		{"  core.push, its own rung (runs inside apply)", fmt.Sprintf("%9.0f", l.r["core.push"].allocs*per)},
		{"remainder (client, transport, session plumbing)", fmt.Sprintf("%9.0f", (lb.allocs-dec.allocs-apply.allocs)*per)},
		{"monitord allocs/frame under ingest", fmt.Sprintf("%9.2f", l.m["fleet.daemon_allocs_per_frame"].Value)},
	})
	serial, sharded := l.m["recheck.serial_fps"].Value, l.m["recheck.sharded_fps"].Value
	table("recheck sharding", [][2]string{
		{"recheck.serial_fps (Workers=1)", fmt.Sprintf("%.0f", serial)},
		{fmt.Sprintf("recheck.sharded_fps (Workers=%d)", nproc), fmt.Sprintf("%.0f (%.2fx serial)", sharded, sharded/serial)},
	})
}

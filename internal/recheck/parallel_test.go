package recheck_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/obs"
	"cpsmon/internal/recheck"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/wire"
)

// shardLog synthesizes one session's bus capture: steady following
// traffic with a fault burst whose position and length vary by
// session, so per-session tallies genuinely differ.
func shardLog(t testing.TB, ticks, session int) *can.Log {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	burstAt := ticks/4 + (session*97)%(ticks/4)
	burstLen := ticks/8 + (session*31)%(ticks/8)
	for tick := 0; tick < ticks; tick++ {
		_ = bus.Set(sigdb.SigVelocity, 24+float64(session%5))
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		_ = bus.Set(sigdb.SigVehicleAhead, 1)
		_ = bus.Set(sigdb.SigTargetRange, 40)
		if tick >= burstAt && tick < burstAt+burstLen {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
		}
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	return bus.Log()
}

// buildShardedArchive interleaves nSessions sessions' frames in
// wire-sized runs — the round-robin shape a fleet server archives —
// over many small segments, and archives a verdict for most sessions:
// the session's true verdict for some, a deliberately inflated one
// (recheck will report a fix) or a blank one (recheck will report a
// regression) for others, and none at all for every eighth session.
func buildShardedArchive(t testing.TB, dir string, nSessions, ticks int) {
	t.Helper()
	db := sigdb.Vehicle()
	cfg := strictConfig(t)
	offline, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := archive.OpenWriter(dir, archive.Options{SegmentBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	logs := make([][]can.Frame, nSessions+1)
	truth := make([]*wire.Verdict, nSessions+1)
	for s := 1; s <= nSessions; s++ {
		log := shardLog(t, ticks, s)
		logs[s] = log.Frames()
		rep, err := offline.CheckLog(log, db)
		if err != nil {
			t.Fatal(err)
		}
		truth[s] = &wire.Verdict{
			Rules:          offlineVerdictRules(rep),
			FramesIngested: uint64(log.Len()),
		}
		if !rep.AnyViolated() {
			t.Fatalf("session %d produced no violations; fixture would be vacuous", s)
		}
	}
	const run = 256
	for at := 0; ; at += run {
		wrote := false
		for s := 1; s <= nSessions; s++ {
			frames := logs[s]
			if at >= len(frames) {
				continue
			}
			end := at + run
			if end > len(frames) {
				end = len(frames)
			}
			if err := w.ArchiveFrames(uint64(s), fmt.Sprintf("veh-%02d", s), frames[at:end]); err != nil {
				t.Fatal(err)
			}
			wrote = true
		}
		if !wrote {
			break
		}
	}
	for s := 1; s <= nSessions; s++ {
		if s%8 == 0 {
			continue // no archived verdict: session must not count as Checked
		}
		v := *truth[s]
		v.Rules = append([]wire.RuleVerdict(nil), v.Rules...)
		switch s % 3 {
		case 1: // inflate: archive claims more violations -> recheck is a fix
			v.Rules[0].Violated = true
			v.Rules[0].Violations += 3
			v.Rules[0].Real += 3
		case 2: // blank the rules: recheck finds violations -> regression
			for i := range v.Rules {
				v.Rules[i] = wire.RuleVerdict{Rule: v.Rules[i].Rule}
			}
		}
		if err := w.ArchiveVerdict(uint64(s), fmt.Sprintf("veh-%02d", s), v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecheckParallelDifferential is the tentpole's acceptance test: a
// 16-session interleaved archive rechecked at 1, 2, 4 and 8 workers
// must produce deeply equal reports — session order, every tally,
// every RuleDiff — with divergences, regressions and fixes all present
// so the comparison is not vacuous.
func TestRecheckParallelDifferential(t *testing.T) {
	const sessions = 16
	ticks := 3000
	if testing.Short() {
		ticks = 1200
	}
	dir := t.TempDir()
	buildShardedArchive(t, dir, sessions, ticks)
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Segments()) < 3 {
		t.Fatalf("fixture built only %d segments", len(cat.Segments()))
	}
	db := sigdb.Vehicle()

	want, err := recheck.Run(cat, db, strictConfig(t), recheck.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Sessions) != sessions {
		t.Fatalf("replayed %d sessions, want %d", len(want.Sessions), sessions)
	}
	if want.Checked == 0 || want.Divergent == 0 || want.Regressions == 0 || want.Fixes == 0 {
		t.Fatalf("fixture too tame for a differential test: %+v", want)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := recheck.Run(cat, db, strictConfig(t), recheck.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: sharded report diverges from sequential\nseq: %+v\npar: %+v",
				workers, want, got)
		}
	}
}

// poisonFramesRecord rewrites the first record of a segment file so
// its frames payload declares an absurd frame count, re-checksumming
// the envelope so only the iterator's frames decoder sees the damage. Layout constants mirror the
// archive format (32-byte file header; envelope = kind, seq, session,
// tmin, tmax, vehicle-length, vehicle, payload, Castagnoli CRC); the
// archive package's own white-box corruption test pins the same
// layout, so format drift fails both tests loudly.
func poisonFramesRecord(t *testing.T, path string) {
	t.Helper()
	const headerSize = 32
	const envFixed = 1 + 8 + 8 + 8 + 8 + 2
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	n := binary.LittleEndian.Uint32(raw[headerSize : headerSize+4])
	body := raw[headerSize+4 : headerSize+4+int(n)]
	data := body[:len(body)-4]
	if data[0] != 1 { // Kind bit for frames records
		t.Fatalf("first record of %s is kind %d, want a frames record", path, data[0])
	}
	vlen := int(binary.LittleEndian.Uint16(data[33:35]))
	payload := data[envFixed+vlen:]
	binary.LittleEndian.PutUint32(payload[:4], 0xFFFFFFF0)
	binary.LittleEndian.PutUint32(body[len(body)-4:], crc32.Checksum(data, crcTable))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecheckWorkerErrorSurfaces corrupts a frames payload in a middle
// segment (envelope checksum intact, so only the iterator's frames
// decoder trips over it): Run — sequential and sharded alike —
// must return that one error promptly instead of hanging the reader or
// the replay shards.
func TestRecheckWorkerErrorSurfaces(t *testing.T) {
	const sessions = 8
	dir := t.TempDir()
	db := sigdb.Vehicle()
	buildShardedArchive(t, dir, sessions, 2000)
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs := cat.Segments()
	if len(segs) < 3 {
		t.Fatalf("fixture built only %d segments", len(segs))
	}
	poisonFramesRecord(t, segs[len(segs)/2].Path)
	// Reopen: sealed segments serve through their footer, so the
	// record-level damage stays invisible until decode time.
	cat, err = archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}

	var errs []string
	for _, workers := range []int{1, 4} {
		done := make(chan error, 1)
		go func() {
			_, err := recheck.Run(cat, db, strictConfig(t), recheck.Options{Workers: workers})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("workers=%d: poisoned archive rechecked cleanly", workers)
			}
			if !strings.Contains(err.Error(), "frames payload") {
				t.Fatalf("workers=%d: error %q is not the frames decode failure", workers, err)
			}
			errs = append(errs, err.Error())
		case <-time.After(60 * time.Second):
			t.Fatalf("workers=%d: Run hung on a worker-side decode error", workers)
		}
	}
	if errs[0] != errs[1] {
		t.Fatalf("error differs by worker count:\nseq: %s\npar: %s", errs[0], errs[1])
	}
}

// TestRecheckRejectsNegativeWorkers pins the Options validation.
func TestRecheckRejectsNegativeWorkers(t *testing.T) {
	dir := t.TempDir()
	w, err := archive.OpenWriter(dir, archive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := recheck.Run(cat, sigdb.Vehicle(), strictConfig(t), recheck.Options{Workers: -1}); err == nil {
		t.Fatal("negative worker count accepted")
	}
}

// TestRecheckMetrics checks the obs wiring: an instrumented run
// populates the throughput and worker-utilization families.
func TestRecheckMetrics(t *testing.T) {
	dir := t.TempDir()
	buildShardedArchive(t, dir, 4, 800)
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	recheck.Instrument(reg)
	defer recheck.Instrument(nil)
	rep, err := recheck.Run(cat, sigdb.Vehicle(), strictConfig(t), recheck.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]float64)
	reg.Each(func(m obs.Metric) {
		got[m.Name] += m.Value
	})
	if got["cpsmon_recheck_runs_total"] != 1 {
		t.Errorf("runs_total = %v, want 1", got["cpsmon_recheck_runs_total"])
	}
	if got["cpsmon_recheck_frames_replayed_total"] != float64(rep.FramesReplayed) {
		t.Errorf("frames_replayed_total = %v, want %d",
			got["cpsmon_recheck_frames_replayed_total"], rep.FramesReplayed)
	}
	if got["cpsmon_recheck_sessions_total"] != float64(len(rep.Sessions)) {
		t.Errorf("sessions_total = %v, want %d",
			got["cpsmon_recheck_sessions_total"], len(rep.Sessions))
	}
	if got["cpsmon_recheck_records_total"] == 0 {
		t.Error("records_total stayed zero")
	}
	if got["cpsmon_recheck_workers"] != 2 {
		t.Errorf("workers gauge = %v, want 2", got["cpsmon_recheck_workers"])
	}
}

// BenchmarkRecheckParallel measures sharded replay scaling over a
// 16-session interleaved archive at 1 worker, 4 workers and
// GOMAXPROCS, reported as frames/sec.
func BenchmarkRecheckParallel(b *testing.B) {
	const sessions = 16
	dir := b.TempDir()
	buildShardedArchive(b, dir, sessions, 3000)
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		b.Fatal(err)
	}
	db := sigdb.Vehicle()
	cfg := strictConfig(b)
	base, err := recheck.Run(cat, db, cfg, recheck.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rep, err := recheck.Run(cat, db, cfg, recheck.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.FramesReplayed != base.FramesReplayed {
					b.Fatalf("replayed %d frames, want %d", rep.FramesReplayed, base.FramesReplayed)
				}
			}
			b.StopTimer()
			total := float64(b.N) * float64(base.FramesReplayed)
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(total/secs, "frames/sec")
			}
		})
	}
}

package recheck_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"reflect"
	"runtime"
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

// layout is the record order of a synthesized archive.
type layout int

const (
	// interleaved round-robins the sessions' frame runs, the shape a
	// fleet server archives, and writes every verdict at the end.
	interleaved layout = iota
	// sequential writes each session whole — its frame runs, then its
	// verdict — the shape of an archive drained session by session.
	sequential
)

func (l layout) String() string {
	if l == sequential {
		return "sequential"
	}
	return "interleaved"
}

// buildShardedArchive archives nSessions sessions' frames in
// wire-sized runs, in the given layout, over many small segments, and
// archives a verdict for most sessions: the session's true verdict for
// some, a deliberately inflated one (recheck will report a fix) or a
// blank one (recheck will report a regression) for others, and none at
// all for every eighth session.
func buildShardedArchive(t testing.TB, dir string, nSessions, ticks int, order layout) {
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
	// run is the frame-run length, a wire batch's worth.
	const run = 256
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
	writeRun := func(s, at int) bool {
		frames := logs[s]
		if at >= len(frames) {
			return false
		}
		end := min(at+run, len(frames))
		if err := w.ArchiveFrames(uint64(s), fmt.Sprintf("veh-%02d", s), frames[at:end]); err != nil {
			t.Fatal(err)
		}
		return true
	}
	writeVerdict := func(s int) {
		if s%8 == 0 {
			return // no archived verdict: session must not count as Checked
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
	if order == sequential {
		for s := 1; s <= nSessions; s++ {
			for at := 0; at < len(logs[s]); at += run {
				writeRun(s, at)
			}
			writeVerdict(s)
		}
	} else {
		for at := 0; ; at += run {
			wrote := false
			for s := 1; s <= nSessions; s++ {
				wrote = writeRun(s, at) || wrote
			}
			if !wrote {
				break
			}
		}
		for s := 1; s <= nSessions; s++ {
			writeVerdict(s)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecheckParallelDifferential is the sharding acceptance test: a
// 16-session archive rechecked at 2, 3, 4 and 8 workers must produce
// reports deeply equal to the sequential engine's — session order,
// every tally, every RuleDiff — with divergences, regressions and fixes
// all present so the comparison is not vacuous. It runs over both
// layouts: interleaved, where every shard has work in every segment,
// and sequential, where each shard's sessions sit in long stretches the
// other shards only skip.
func TestRecheckParallelDifferential(t *testing.T) {
	const sessions = 16
	ticks := 3000
	if testing.Short() {
		ticks = 1200
	}
	db := sigdb.Vehicle()
	for _, order := range []layout{interleaved, sequential} {
		t.Run(order.String(), func(t *testing.T) {
			dir := t.TempDir()
			buildShardedArchive(t, dir, sessions, ticks, order)
			cat, err := archive.OpenCatalog(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(cat.Segments()) < 3 {
				t.Fatalf("fixture built only %d segments", len(cat.Segments()))
			}
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
			for _, workers := range []int{2, 3, 4, 8} {
				got, err := recheck.Run(cat, db, strictConfig(t), recheck.Options{Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("workers=%d: sharded report diverges from sequential\nseq: %+v\npar: %+v",
						workers, want, got)
				}
			}
		})
	}
}

// poisonFrames rewrites the frames record with sequence number seq so
// its payload declares the given absurd frame count, re-checksumming
// the envelope so only the iterator's frames decoder sees the damage;
// distinct counts give distinct decode errors. Layout constants mirror
// the archive format (32-byte file header; length-prefixed bodies;
// envelope = kind, seq, session, tmin, tmax, vehicle-length, vehicle,
// payload, Castagnoli CRC); the archive package's own white-box
// corruption test pins the same layout, so format drift fails both
// tests loudly.
func poisonFrames(t *testing.T, segs []archive.SegmentInfo, seq uint64, count uint32) {
	t.Helper()
	const headerSize = 32
	const envFixed = 1 + 8 + 8 + 8 + 8 + 2
	crcTable := crc32.MakeTable(crc32.Castagnoli)
	for _, seg := range segs {
		if seq < seg.FirstSeq || seq > seg.LastSeq {
			continue
		}
		raw, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		for off := headerSize; off+4 <= len(raw); {
			n := int(binary.LittleEndian.Uint32(raw[off : off+4]))
			body := raw[off+4 : off+4+n]
			off += 4 + n
			data := body[:len(body)-4]
			if binary.LittleEndian.Uint64(data[1:9]) != seq {
				continue
			}
			if data[0] != 1 { // Kind bit for frames records
				t.Fatalf("record %d is kind %d, want a frames record", seq, data[0])
			}
			vlen := int(binary.LittleEndian.Uint16(data[33:35]))
			payload := data[envFixed+vlen:]
			binary.LittleEndian.PutUint32(payload[:4], count)
			binary.LittleEndian.PutUint32(body[len(body)-4:], crc32.Checksum(data, crcTable))
			if err := os.WriteFile(seg.Path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no record %d in the archive", seq)
}

// runErr rechecks the archive and returns the error Run fails with,
// failing the test when Run succeeds or hangs.
func runErr(t *testing.T, cat *archive.Catalog, workers int) string {
	t.Helper()
	cfg := strictConfig(t)
	done := make(chan error, 1)
	go func() {
		_, err := recheck.Run(cat, sigdb.Vehicle(), cfg, recheck.Options{Workers: workers})
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
		return err.Error()
	case <-time.After(60 * time.Second):
		t.Fatalf("workers=%d: Run hung on a decode error", workers)
	}
	return ""
}

// reopen reopens the catalog after a poisoning: sealed segments serve
// through their footer, so record-level damage stays invisible until
// decode time.
func reopen(t *testing.T, dir string) *archive.Catalog {
	t.Helper()
	cat, err := archive.OpenCatalog(dir)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestRecheckWorkerErrorSurfaces corrupts a frames payload in a middle
// segment (envelope checksum intact, so only the iterator's frames
// decoder trips over it): Run — sequential and sharded alike —
// must return that one error promptly instead of hanging the readers
// or the replay shards.
func TestRecheckWorkerErrorSurfaces(t *testing.T) {
	const sessions = 8
	dir := t.TempDir()
	buildShardedArchive(t, dir, sessions, 2000, interleaved)
	segs := reopen(t, dir).Segments()
	if len(segs) < 3 {
		t.Fatalf("fixture built only %d segments", len(segs))
	}
	poisonFrames(t, segs, segs[len(segs)/2].FirstSeq, 0xFFFFFFF0)
	cat := reopen(t, dir)
	want := runErr(t, cat, 1)
	for _, workers := range []int{2, 3, 4} {
		if got := runErr(t, cat, workers); got != want {
			t.Fatalf("workers=%d: error differs from the sequential engine's:\nseq: %s\npar: %s", workers, want, got)
		}
	}
}

// TestRecheckEarliestErrorWins poisons two frames records in a
// sequential-layout archive: the last one of session 1 and, later in
// archive order, the first one of session 2. The two sessions belong to
// different workers at every worker count tried, and the second poison
// is the one reached first in wall-clock time — its worker only skips
// session 1's records, while session 1's worker must replay them all.
// Every worker count must still return the sequential engine's error,
// the first poison in archive order.
func TestRecheckEarliestErrorWins(t *testing.T) {
	dir := t.TempDir()
	buildShardedArchive(t, dir, 3, 2000, sequential)
	cat := reopen(t, dir)
	var last1, first2 uint64
	it := cat.Iter(archive.Query{Kinds: archive.KindFrames})
	for it.Next() {
		switch rec := it.Record(); {
		case rec.Session == 1:
			last1 = rec.Seq
		case rec.Session == 2 && first2 == 0:
			first2 = rec.Seq
		}
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
	if last1 == 0 || first2 <= last1 {
		t.Fatalf("fixture out of layout: session 1 ends at %d, session 2 starts at %d", last1, first2)
	}

	poisonFrames(t, cat.Segments(), first2, 0xFFFFFFF1)
	later := runErr(t, reopen(t, dir), 1)
	poisonFrames(t, cat.Segments(), last1, 0xFFFFFFF0)
	cat = reopen(t, dir)
	want := runErr(t, cat, 1)
	if want == later {
		t.Fatalf("the two poisons fail alike (%s); the test cannot tell them apart", want)
	}
	for _, workers := range []int{2, 3, 4} {
		if got := runErr(t, cat, workers); got != want {
			t.Fatalf("workers=%d: returned a later error than the sequential engine:\nseq: %s\npar: %s", workers, want, got)
		}
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
	buildShardedArchive(t, dir, 4, 800, interleaved)
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
	buildShardedArchive(b, dir, sessions, 3000, interleaved)
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

// TestShardedReplayCopiesNoFrames guards the in-place replay: sharded
// workers replay records straight out of their iterators' scratch, so
// the bytes a Run allocates — monitors, tallies, read buffers — depend
// on the sessions and workers, not on how many frames the archive
// holds. A reader that copied frames to the workers would allocate in
// proportion to the frame count.
func TestShardedReplayCopiesNoFrames(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two archives")
	}
	const sessions, workers = 4, 2
	perRun := func(ticks int) (bytes uint64, frames uint64) {
		dir := t.TempDir()
		buildShardedArchive(t, dir, sessions, ticks, interleaved)
		cat := reopen(t, dir)
		cfg := strictConfig(t)
		run := func() {
			rep, err := recheck.Run(cat, sigdb.Vehicle(), cfg, recheck.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			frames = rep.FramesReplayed
		}
		run() // warm up
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs, frames
	}
	smallBytes, smallFrames := perRun(1000)
	largeBytes, largeFrames := perRun(4000)
	t.Logf("%d frames: %d B/run; %d frames: %d B/run", smallFrames, smallBytes, largeFrames, largeBytes)
	if largeFrames < 3*smallFrames {
		t.Fatalf("fixture did not grow: %d frames against %d", largeFrames, smallFrames)
	}
	if largeBytes > smallBytes+smallBytes/4 {
		t.Fatalf("allocation grows with the archive: %d B/run over %d frames, %d B/run over %d frames",
			smallBytes, smallFrames, largeBytes, largeFrames)
	}
}

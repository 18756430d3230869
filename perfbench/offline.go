package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cpsmon/internal/archive"
	"cpsmon/internal/campaign"
	"cpsmon/internal/core"
	"cpsmon/internal/recheck"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/trace"
)

// offlineCaptures sizes the offline corpus: sessions in the archive and
// captures per CheckLog pass.
const offlineCaptures = 10

// offlineInstance is a set-up offline workload: seeded HIL captures,
// archived as one session each with their CheckLog verdicts.
type offlineInstance struct {
	dir  string
	caps []*capture
	mon  *core.Monitor
	cat  *archive.Catalog
}

func setupOffline(cfg config, dir string) (instance, error) {
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return nil, err
	}
	caps, err := hilCaptures(cfg.seed, offlineCaptures, mon)
	if err != nil {
		return nil, err
	}
	cat, err := archiveCaptures(filepath.Join(dir, "archive"), caps, mon)
	if err != nil {
		return nil, err
	}
	return &offlineInstance{dir: dir, caps: caps, mon: mon, cat: cat}, nil
}

// archiveCaptures writes each capture as session i+1 in sendWindow
// frame runs, followed by its CheckLog verdict, and opens the catalog.
// A CheckLog verdict that differs from the streaming reference is a
// set-up error: the corpus would not be a valid oracle.
func archiveCaptures(dir string, caps []*capture, mon *core.Monitor) (*archive.Catalog, error) {
	w, err := archive.OpenWriter(dir, archive.Options{})
	if err != nil {
		return nil, err
	}
	for i, c := range caps {
		sess, veh := uint64(i+1), fmt.Sprintf("veh-%d", i)
		for _, run := range c.runs {
			if err := w.ArchiveFrames(sess, veh, run); err != nil {
				w.Close()
				return nil, err
			}
		}
		rep, err := mon.CheckLog(c.log, sigdb.Vehicle())
		if err != nil {
			w.Close()
			return nil, err
		}
		v := verdictFromReport(rep)
		if err := sameRules(v, c.verdict); err != nil {
			w.Close()
			return nil, fmt.Errorf("capture %d: CheckLog disagrees with the streaming monitor: %w", i, err)
		}
		v.FramesIngested = c.verdict.FramesIngested
		if err := w.ArchiveVerdict(sess, veh, v); err != nil {
			w.Close()
			return nil, err
		}
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	return archive.OpenCatalog(dir)
}

func (o *offlineInstance) inputs() []*capture { return o.caps }

func (o *offlineInstance) close() error { return os.RemoveAll(o.dir) }

// checkLogPass runs CheckLog on every capture, comparing each report
// with the streaming monitor's verdict, and feeds each call to w.
func checkLogPass(mon *core.Monitor, caps []*capture, acct *accounting, w *windows) (frames int64) {
	db := sigdb.Vehicle()
	for _, c := range caps {
		t0 := time.Now()
		rep, err := mon.CheckLog(c.log, db)
		now := time.Now()
		if err == nil {
			err = sameRules(verdictFromReport(rep), c.verdict)
		}
		acct.record(err)
		w.add(completion{at: now, frames: int64(len(c.frames)), lat: []float64{ms(now.Sub(t0))}})
		frames += int64(len(c.frames))
	}
	return frames
}

// recheckPass runs recheck.Run over the catalog with the given worker
// count and checks every session agrees with its archived verdict and
// the streaming reference.
func recheckPass(cat *archive.Catalog, caps []*capture, workers int, acct *accounting) (frames int64, err error) {
	rs, err := rules.Strict()
	if err != nil {
		return 0, err
	}
	rep, err := recheck.Run(cat, sigdb.Vehicle(), core.Config{Rules: rs, Triage: rules.DefaultTriage()}, recheck.Options{Workers: workers})
	if err != nil {
		acct.record(err)
		return 0, nil
	}
	if len(rep.Sessions) != len(caps) {
		acct.record(fmt.Errorf("recheck saw %d sessions, archived %d", len(rep.Sessions), len(caps)))
	}
	for _, s := range rep.Sessions {
		i := int(s.Session) - 1
		var err error
		switch {
		case i < 0 || i >= len(caps):
			err = fmt.Errorf("recheck: unknown session %d", s.Session)
		case s.Divergent():
			err = fmt.Errorf("recheck: session %d divergent: %+v", s.Session, s.Diffs)
		case s.Frames != uint64(len(caps[i].frames)):
			err = fmt.Errorf("recheck: session %d replayed %d frames, archived %d", s.Session, s.Frames, len(caps[i].frames))
		default:
			err = sameRules(s.Rechecked, caps[i].verdict)
		}
		acct.record(err)
	}
	return int64(rep.FramesReplayed), nil
}

// run alternates a CheckLog pass over every capture with a sharded
// recheck of the archive until the time is up. Throughput, CheckLog
// latency and CPU per frame come from measurement windows (see window).
func (o *offlineInstance) run(cfg config, acct *accounting) (map[string]metric, error) {
	dur := seconds(cfg.seconds)
	start := time.Now()
	w := startWindows(start, dur, selfCPU)
	var checkTime, recheckTime time.Duration
	var checkFrames, recheckFrames int64
	for time.Since(start) < dur {
		t0 := time.Now()
		checkFrames += checkLogPass(o.mon, o.caps, acct, w)
		checkTime += time.Since(t0)
		t1 := time.Now()
		n, err := recheckPass(o.cat, o.caps, nproc, acct)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		recheckTime += t2.Sub(t1)
		recheckFrames += n
		w.addSpread(t1, t2, n)
	}
	fps, p50, p90, cpu, err := w.finish()
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"check_fps":        {float64(checkFrames) / checkTime.Seconds(), "frames/s"},
		"recheck_fps":      {float64(recheckFrames) / recheckTime.Seconds(), "frames/s"},
		"throughput_fps":   {fps, "frames/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"cpu_ns_per_frame": {cpu, "ns"},
		"rss_peak_mb":      {selfRSSMB(), "MB"},
	}, nil
}

// goldenSeed is the seed the repository's Table I golden was recorded
// with.
const goldenSeed = 42

// campaignInstance is a set-up Table I campaign: the golden table when
// the seed has one, and a capture for the traced ladder.
type campaignInstance struct {
	golden []byte
	caps   []*capture
	// framesPerStep converts the campaign's checked grid steps to bus
	// frames, measured on a capture of the same HIL bench.
	framesPerStep float64
}

func setupCampaign(cfg config, dir string) (instance, error) {
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return nil, err
	}
	caps, err := hilCaptures(cfg.seed, 1, mon)
	if err != nil {
		return nil, err
	}
	tr, err := trace.FromCANLog(caps[0].log, sigdb.Vehicle())
	if err != nil {
		return nil, err
	}
	grid, err := trace.Align(tr, sigdb.FastPeriod)
	if err != nil {
		return nil, err
	}
	ci := &campaignInstance{caps: caps, framesPerStep: float64(len(caps[0].frames)) / float64(grid.NumSteps())}
	if cfg.seed == goldenSeed {
		ci.golden, err = os.ReadFile(filepath.Join("internal", "campaign", "testdata", "table1_seed42.golden"))
		if err != nil {
			return nil, fmt.Errorf("golden table: %w", err)
		}
	}
	return ci, nil
}

func (c *campaignInstance) inputs() []*capture { return c.caps }

func (c *campaignInstance) close() error { return nil }

// run repeats the whole Table I campaign until the time is up. Each
// table must match the golden on its seed and, on every seed, the
// first table of the run byte for byte (the campaign is deterministic
// at any parallelism). Each table is one measurement window for
// throughput and CPU per frame (see window); latency is the median and
// 90th percentile of table times.
func (c *campaignInstance) run(cfg config, acct *accounting) (map[string]metric, error) {
	dur := seconds(cfg.seconds)
	tcfg := campaign.DefaultTableIConfig(cfg.seed)
	tcfg.Parallelism = nproc
	ref := c.golden
	start := time.Now()
	var runMs, fps, cpuPerFrame []float64
	for len(runMs) == 0 || time.Since(start) < dur {
		c0 := selfCPU()
		t0 := time.Now()
		table, err := campaign.RunTableI(tcfg)
		wall := time.Since(t0)
		cpu := selfCPU() - c0
		runMs = append(runMs, ms(wall))
		if err != nil {
			acct.record(err)
			continue
		}
		var buf bytes.Buffer
		if err := table.Render(&buf); err != nil {
			return nil, err
		}
		switch {
		case ref == nil:
			ref = buf.Bytes()
			acct.record(nil)
		case !bytes.Equal(ref, buf.Bytes()):
			acct.record(fmt.Errorf("table I differs from the reference:\n%s", buf.String()))
		default:
			acct.record(nil)
		}
		var steps int64
		for _, row := range table.Rows {
			if row.Report != nil && len(row.Report.Rules) > 0 {
				steps += int64(row.Report.Rules[0].Result.StepsChecked)
			}
		}
		frames := float64(steps) * c.framesPerStep
		fps = append(fps, frames/wall.Seconds())
		cpuPerFrame = append(cpuPerFrame, float64(cpu.Nanoseconds())/frames)
	}
	if len(fps) == 0 {
		return nil, fmt.Errorf("no table completed")
	}
	return map[string]metric{
		"campaign_s":       {median(runMs) / 1e3, "s"},
		"tables":           {float64(len(runMs)), "count"},
		"throughput_fps":   {bestDecile(fps, true), "frames/s"},
		"latency_p50_ms":   {quantile(runMs, 0.5), "ms"},
		"latency_p90_ms":   {quantile(runMs, 0.9), "ms"},
		"cpu_ns_per_frame": {bestDecile(cpuPerFrame, false), "ns"},
		"rss_peak_mb":      {selfRSSMB(), "MB"},
	}, nil
}

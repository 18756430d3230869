package main

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/fleet"
	"cpsmon/internal/rules"
	"cpsmon/internal/wire"
)

// Paced workload shape: each vehicle replays at paceSpeed× real time
// and uplinks one batch per paceWindow of wall time.
const (
	paceSpeed  = 50
	paceWindow = 50 * time.Millisecond
	// lateAfter is how far past its due time a batch may leave before
	// it counts as late.
	lateAfter = time.Millisecond
	// ingestCaptures and pacedCaptures size the capture pools the
	// sessions cycle through: large enough that a pool's mean cost
	// varies little from seed to seed, and the paced pool about what
	// one run replays.
	ingestCaptures = 20
	pacedCaptures  = 16
	pacedVehicles  = 2
)

// fleetInstance is a set-up ingest or paced workload: its captures
// and a running untraced daemon.
type fleetInstance struct {
	caps  []*capture
	d     *daemon
	paced bool
}

func setupIngest(cfg config, dir string) (instance, error) {
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return nil, err
	}
	caps, err := hilCaptures(cfg.seed, ingestCaptures, mon)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.monitord, filepath.Join(dir, "daemon"), 0)
	if err != nil {
		return nil, err
	}
	return &fleetInstance{caps: caps, d: d}, nil
}

func setupPaced(cfg config, dir string) (instance, error) {
	caps, err := denseCaptures(cfg.seed, pacedCaptures)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg.monitord, filepath.Join(dir, "daemon"), 0)
	if err != nil {
		return nil, err
	}
	return &fleetInstance{caps: caps, d: d, paced: true}, nil
}

// denseCaptures generates n violation-dense captures cut into paced
// batches.
func denseCaptures(seed int64, n int) ([]*capture, error) {
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		return nil, err
	}
	var out []*capture
	for i := 0; i < n; i++ {
		log, err := denseCapture(seed*1000 + int64(i))
		if err != nil {
			return nil, err
		}
		c, err := newCapture(log, mon, paceWindow*paceSpeed)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func (f *fleetInstance) inputs() []*capture { return f.caps }

func (f *fleetInstance) close() error { return f.d.stop() }

// run streams for cfg.seconds. Latency, throughput and the daemon's
// CPU per frame come from measurement windows (see window); ingest
// counts a session's frames when its verdict arrives, paced counts a
// batch's frames when it leaves. Paced throughput is the whole run's,
// the offered rate unless the server falls behind.
func (f *fleetInstance) run(cfg config, acct *accounting) (map[string]metric, error) {
	dur := seconds(cfg.seconds)
	start := time.Now()
	pid := f.d.cmd.Process.Pid
	w := startWindows(start, dur, func() time.Duration { return taskCPU(pid) })
	var lr loadResult
	if f.paced {
		lr = pacedLoop(f.d.addr, f.caps, start, dur, acct, w)
	} else {
		lr = ingestLoop(f.d.addr, f.caps, start, dur, acct, w)
	}
	fps, p50, p90, cpu, err := w.finish()
	if err != nil {
		return nil, err
	}
	if f.paced {
		fps = float64(lr.frames) / lr.elapsed.Seconds()
	}
	if err := f.d.stop(); err != nil {
		return nil, err
	}
	m := map[string]metric{
		"throughput_fps":   {fps, "frames/s"},
		"latency_p50_ms":   {p50, "ms"},
		"latency_p90_ms":   {p90, "ms"},
		"cpu_ns_per_frame": {cpu, "ns"},
		"rss_peak_mb":      {f.d.peakRSSMB(), "MB"},
	}
	if f.paced {
		lat := lr.detectMs
		m["detect_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
		m["detect_p90_ms"] = metric{quantile(lat, 0.9), "ms"}
		m["detect_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
		m["detect_samples"] = metric{float64(len(lat)), "count"}
		m["loadgen.late_frac"] = metric{lr.lateFrac(), "ratio"}
		m["loadgen.lag_p99_ms"] = metric{quantile(lr.lagMs, 0.99), "ms"}
	} else {
		m["ingest_fps"] = metric{float64(lr.frames) / lr.elapsed.Seconds(), "frames/s"}
		m["sessions"] = metric{float64(len(lr.sessionMs)), "count"}
	}
	return m, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// loadResult is what one generator phase measured.
type loadResult struct {
	frames    int64
	elapsed   time.Duration
	sessionMs []float64 // dial-to-verdict time per completed session
	detectMs  []float64 // paced: detection latency per begin event
	lagMs     []float64 // paced: send time minus due time per batch
	late      int       // paced: batches sent more than lateAfter past due
	genCPU    time.Duration
}

func (lr *loadResult) lateFrac() float64 {
	if len(lr.lagMs) == 0 {
		return 0
	}
	return float64(lr.late) / float64(len(lr.lagMs))
}

// merge folds one connection's results in.
func (lr *loadResult) merge(o *loadResult) {
	lr.frames += o.frames
	lr.sessionMs = append(lr.sessionMs, o.sessionMs...)
	lr.detectMs = append(lr.detectMs, o.detectMs...)
	lr.lagMs = append(lr.lagMs, o.lagMs...)
	lr.late += o.late
}

// ingestLoop is the closed loop: nproc connections each stream whole
// captures back to back, one session per capture, at full speed, until
// dur has passed; the sessions open at the deadline run to their
// verdict. Completed sessions are also fed to w when it is not nil.
func ingestLoop(addr string, caps []*capture, start time.Time, dur time.Duration, acct *accounting, w *windows) loadResult {
	conns := nproc
	cpu0 := selfCPU()
	deadline := start.Add(dur)
	parts := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			p := &parts[c]
			for k := c; time.Now().Before(deadline); k += conns {
				cp := caps[k%len(caps)]
				t0 := time.Now()
				err := runSession(addr, fmt.Sprintf("ingest-%d", c), cp, nil)
				acct.record(err)
				if err == nil {
					now := time.Now()
					lat := ms(now.Sub(t0))
					p.frames += int64(len(cp.frames))
					p.sessionMs = append(p.sessionMs, lat)
					if w != nil {
						w.add(completion{at: now, frames: int64(len(cp.frames)), lat: []float64{lat}})
					}
				}
			}
		}(c)
	}
	wg.Wait()
	lr := loadResult{elapsed: time.Since(start), genCPU: selfCPU() - cpu0}
	for i := range parts {
		lr.merge(&parts[i])
	}
	return lr
}

// pacer schedules one paced session: batch i is due at base plus its
// last frame's capture time scaled by paceSpeed.
type pacer struct {
	base  time.Time
	lagMs []float64
	late  int
	// w, when not nil, receives each batch's frames as it leaves and
	// each detection sample as it arrives.
	w *windows
	// detectMs collects, per begin event, receive time minus the due
	// time of the batch carrying its deciding frame.
	detectMs []float64
}

func (p *pacer) due(t time.Duration) time.Time { return p.base.Add(t / paceSpeed) }

// wait sleeps until the batch ending at capture time t is due, then
// records how late the send leaves. It never waits for the server: a
// slow server only makes later batches late.
func (p *pacer) wait(t time.Duration) {
	due := p.due(t)
	if d := time.Until(due); d > 0 {
		time.Sleep(d)
	}
	lag := time.Since(due)
	p.lagMs = append(p.lagMs, ms(lag))
	if lag > lateAfter {
		p.late++
	}
}

// pacedLoop is the open loop: pacedVehicles vehicles each replay
// captures back to back on a fixed schedule at paceSpeed× real time,
// one session per capture, whether or not the server keeps up. The
// schedule starts at start. Completed sessions, with their detection
// samples, are also fed to w when it is not nil.
func pacedLoop(addr string, caps []*capture, start time.Time, dur time.Duration, acct *accounting, w *windows) loadResult {
	cpu0 := selfCPU()
	deadline := start.Add(dur)
	parts := make([]loadResult, pacedVehicles)
	var wg sync.WaitGroup
	for v := 0; v < pacedVehicles; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			out := &parts[v]
			base := start
			for k := v; base.Before(deadline); k += pacedVehicles {
				cp := caps[k%len(caps)]
				p := &pacer{base: base, w: w}
				if d := time.Until(base); d > 0 {
					time.Sleep(d)
				}
				t0 := time.Now()
				err := runSession(addr, fmt.Sprintf("paced-%d", v), cp, p)
				acct.record(err)
				if err == nil {
					now := time.Now()
					out.frames += int64(len(cp.frames))
					out.sessionMs = append(out.sessionMs, ms(now.Sub(t0)))
					out.detectMs = append(out.detectMs, p.detectMs...)
				}
				out.lagMs = append(out.lagMs, p.lagMs...)
				out.late += p.late
				base = base.Add(cp.log.Duration() / paceSpeed)
			}
		}(v)
	}
	wg.Wait()
	lr := loadResult{elapsed: time.Since(start), genCPU: selfCPU() - cpu0}
	for i := range parts {
		lr.merge(&parts[i])
	}
	return lr
}

// runSession streams one capture as one session and checks the verdict
// and event stream against the capture's reference. With a pacer the
// batches leave on schedule and detection latency is sampled.
func runSession(addr, vehicle string, cp *capture, p *pacer) error {
	var mu sync.Mutex
	var evs []wire.Event
	begins := 0
	onEvent := func(e wire.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		evs = append(evs, e)
		if p != nil && e.Kind == wire.EventBegin {
			if begins < len(cp.decidingAt) {
				lat := ms(now.Sub(p.due(cp.decidingAt[begins])))
				p.detectMs = append(p.detectMs, lat)
				if p.w != nil {
					p.w.add(completion{at: now, lat: []float64{lat}})
				}
			}
			begins++
		}
	}
	cl, err := fleet.DialOptions(addr, fleet.Options{Vehicle: vehicle, OnEvent: onEvent, Seed: 1})
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, run := range cp.runs {
		if p != nil {
			p.wait(lastTime(run))
		}
		if err := cl.Send(run); err != nil {
			return err
		}
		if p != nil && p.w != nil {
			p.w.add(completion{at: time.Now(), frames: int64(len(run))})
		}
	}
	v, err := cl.Finish()
	if err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	return cp.checkSession(v, evs)
}

func lastTime(run []can.Frame) time.Duration { return run[len(run)-1].Time }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

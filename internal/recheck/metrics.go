package recheck

import (
	"sync/atomic"
	"time"

	"cpsmon/internal/obs"
)

// Metrics counts recheck activity: runs, replayed records and frames,
// throughput and worker utilization. As with the archive's metrics,
// instrumentation is package-level — Run is a free function with no
// value to hang counters on — and a nil pointer (the default) costs
// one atomic load per touch point.
type Metrics struct {
	runs       *obs.Counter
	records    *obs.Counter
	frames     *obs.Counter
	sessions   *obs.Counter
	workers    *obs.Gauge
	runSecs    *obs.Histogram
	busySecs   *obs.Histogram
	throughput *obs.Gauge
}

var metrics atomic.Pointer[Metrics]

// Instrument registers the recheck metric families on reg and starts
// counting. Passing nil detaches.
func Instrument(reg *obs.Registry) {
	if reg == nil {
		metrics.Store(nil)
		return
	}
	m := &Metrics{
		runs: reg.Counter("cpsmon_recheck_runs_total",
			"Recheck runs completed."),
		records: reg.Counter("cpsmon_recheck_records_total",
			"Archive records consumed by recheck runs."),
		frames: reg.Counter("cpsmon_recheck_frames_replayed_total",
			"Frames replayed into recheck monitors."),
		sessions: reg.Counter("cpsmon_recheck_sessions_total",
			"Sessions replayed by recheck runs."),
		workers: reg.Gauge("cpsmon_recheck_workers",
			"Worker count of the most recent recheck run."),
		runSecs: reg.Histogram("cpsmon_recheck_run_seconds",
			"Wall-clock duration of recheck runs.",
			obs.ExpBuckets(1e-3, 4, 12)),
		busySecs: reg.Histogram("cpsmon_recheck_worker_busy_seconds",
			"Per-worker archive read and replay time per sharded run; utilization is this over the run duration.",
			obs.ExpBuckets(1e-3, 4, 12)),
		throughput: reg.Gauge("cpsmon_recheck_frames_per_second",
			"Replay throughput of the most recent recheck run."),
	}
	metrics.Store(m)
}

// countRecords records the archive records a run consumed.
func countRecords(n uint64) {
	if m := metrics.Load(); m != nil {
		m.records.Add(n)
	}
}

// observeRun records a completed run's size, duration, throughput and
// per-worker busy time.
func observeRun(rep *Report, workers int, busy []time.Duration, elapsed time.Duration) {
	m := metrics.Load()
	if m == nil {
		return
	}
	m.runs.Inc()
	m.frames.Add(rep.FramesReplayed)
	m.sessions.Add(uint64(len(rep.Sessions)))
	m.workers.Set(float64(workers))
	m.runSecs.Observe(elapsed.Seconds())
	for _, d := range busy {
		m.busySecs.Observe(d.Seconds())
	}
	if s := elapsed.Seconds(); s > 0 {
		m.throughput.Set(float64(rep.FramesReplayed) / s)
	}
}

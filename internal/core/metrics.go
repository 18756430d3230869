package core

import (
	"cpsmon/internal/obs"
)

// stepSampleEvery is the step-latency sampling interval: an
// instrumented session times the grid steps whose index k satisfies
// k % stepSampleEvery == 0 and reads no clock on the others. Each
// histogram observation is still one real step's latency; the
// histograms' _count is ⌈steps/stepSampleEvery⌉ while
// cpsmon_monitor_steps_total stays exact.
const stepSampleEvery = 64

// stepLatencyBuckets spans 100ns to ~0.42s in powers of four: a single
// checker step is typically sub-microsecond, but a drain step over a
// long queue can stall behind the scheduler.
func stepLatencyBuckets() []float64 { return obs.ExpBuckets(100e-9, 4, 12) }

// RuleNames returns the monitor's rule names in rule-set order — the
// order the stream checker evaluates and the order NewMetrics expects.
func (m *Monitor) RuleNames() []string {
	var names []string
	for _, r := range m.rules.Rules() {
		names = append(names, r.Name)
	}
	return names
}

// Metrics instruments the streaming monitor on a shared obs registry:
// frame decode and staleness counters, event emission, whole-checker
// step latency, and per-rule step-latency histograms plus violation
// counters keyed by rule index (labelled with the rule name). One
// Metrics is built per (registry, spec) pair and shared by every
// OnlineMonitor evaluating that spec — the counters are atomic, so
// concurrent sessions aggregate safely. A session adds its frame and
// step counts once per push call rather than per frame, and feeds the
// latency histograms one step in stepSampleEvery.
type Metrics struct {
	framesDecoded *obs.Counter
	framesStale   *obs.Counter
	events        *obs.Counter
	steps         *obs.Counter
	stepLatency   *obs.Histogram

	ruleStep       []*obs.Histogram
	ruleViolations []*obs.Counter
	ruleIndex      map[string]int
}

// NewMetrics registers the monitor metric families on reg. spec labels
// every series (the fleet server runs one compiled monitor per spec
// selection); ruleNames must be in rule-set order — the same order the
// stream checker evaluates, so rule index i of a timed step and
// ruleNames[i] name the same rule. A nil registry returns nil, which
// Instrument treats as "not instrumented".
func NewMetrics(reg *obs.Registry, spec string, ruleNames []string) *Metrics {
	if reg == nil {
		return nil
	}
	specLabel := obs.Label{Name: "spec", Value: spec}
	m := &Metrics{
		framesDecoded: reg.Counter("cpsmon_monitor_frames_decoded_total",
			"Frames decoded into the latched signal vector.", specLabel),
		framesStale: reg.Counter("cpsmon_monitor_frames_stale_total",
			"Frames skipped by PushFrames for regressing in time.", specLabel),
		events: reg.Counter("cpsmon_monitor_events_total",
			"Oracle events emitted (violation begins and ends).", specLabel),
		steps: reg.Counter("cpsmon_monitor_steps_total",
			"Evaluation grid steps finalized.", specLabel),
		stepLatency: reg.Histogram("cpsmon_monitor_step_latency_seconds",
			"Whole-checker latency of one finalized grid step, sampled one step in 64.", stepLatencyBuckets(), specLabel),
		ruleIndex: make(map[string]int, len(ruleNames)),
	}
	for i, name := range ruleNames {
		ruleLabel := obs.Label{Name: "rule", Value: name}
		m.ruleStep = append(m.ruleStep, reg.Histogram("cpsmon_monitor_rule_step_latency_seconds",
			"Per-rule incremental evaluation latency of one step, sampled one step in 64.", stepLatencyBuckets(), specLabel, ruleLabel))
		m.ruleViolations = append(m.ruleViolations, reg.Counter("cpsmon_monitor_rule_violations_total",
			"Closed violation intervals per rule.", specLabel, ruleLabel))
		m.ruleIndex[name] = i
	}
	return m
}

// Instrument attaches the metrics to this monitor session: frame,
// step and event accounting plus the sampled whole-step and per-rule
// step latencies. Pass nil to detach. Counts cover the pushes made
// while attached; the updates are allocation-free, preserving the hot
// path's zero-allocation contract.
func (o *OnlineMonitor) Instrument(m *Metrics) { o.met = m }

// observeStep records one timed step: its whole-checker latency and
// each rule's share, in rule-set order.
func (m *Metrics) observeStep(nanos int64, ruleNanos []int64) {
	m.stepLatency.Observe(float64(nanos) / 1e9)
	for i, h := range m.ruleStep[:min(len(m.ruleStep), len(ruleNanos))] {
		h.Observe(float64(ruleNanos[i]) / 1e9)
	}
}

// publish adds the frame and step counts accumulated since the last
// call to the shared counters, so they are exact whenever a push call
// returns. Counts made while detached are dropped.
func (o *OnlineMonitor) publish() {
	if m := o.met; m != nil {
		if o.nDecoded != 0 {
			m.framesDecoded.Add(o.nDecoded)
		}
		if o.nStale != 0 {
			m.framesStale.Add(o.nStale)
		}
		if o.nSteps != 0 {
			m.steps.Add(o.nSteps)
		}
	}
	o.nDecoded, o.nStale, o.nSteps = 0, 0, 0
}

// Package obs is the repository's observability layer: a
// standard-library-only metrics registry with atomic counters, gauges
// and fixed-bucket histograms, a Prometheus text-exposition encoder,
// and an HTTP admin handler (metrics, health, pprof). The audit trail
// of events and verdicts is the archive (internal/archive), not part
// of this package.
//
// The registry is built for the monitor's hot path: once a metric
// handle is created, every update — Counter.Inc/Add, Gauge.Set,
// Histogram.Observe — is a handful of atomic operations and performs
// no allocation, takes no lock, and never formats a string. All
// formatting cost is paid at scrape time by the encoder, which takes a
// coherent-enough snapshot for operational monitoring (counters are
// read individually, not under a global lock — exactly the consistency
// the fleet server's Stats() always had).
//
// Metric identity follows the Prometheus data model: a family (name,
// help, kind) holds one series per distinct label set. Creating the
// same (name, labels) twice returns the same handle, so independent
// components may share a registry without coordination; creating the
// same name with a different kind panics, as that is a programming
// error no scrape should paper over.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" pair attached to a metric series.
type Label struct {
	Name, Value string
}

// Kind distinguishes the metric families a registry can hold.
type Kind int

const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindGaugeFunc is a gauge sampled from a callback at scrape time.
	KindGaugeFunc
	// KindHistogram is a fixed-bucket distribution.
	KindHistogram
)

// String names the kind in Prometheus TYPE vocabulary.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge, KindGaugeFunc:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing uint64. The zero value is not
// usable; obtain counters from a Registry.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution with an atomic count per
// bucket plus a total count and sum. Buckets are defined by their
// upper bounds (inclusive, sorted ascending); an implicit +Inf bucket
// catches everything above the last bound. Observe is allocation-free
// and lock-free.
type Histogram struct {
	upper   []float64 // finite upper bounds, ascending
	buckets []atomic.Uint64
	inf     atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	if i < len(h.upper) {
		h.buckets[i].Add(1)
	} else {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Buckets returns the finite upper bounds and their cumulative counts
// (Prometheus le semantics: counts[i] is the number of observations at
// most upper[i]). The +Inf bucket is Count().
func (h *Histogram) Buckets() (upper []float64, cumulative []uint64) {
	upper = h.upper // immutable after construction
	cumulative = make([]uint64, len(h.upper))
	var run uint64
	for i := range h.buckets {
		run += h.buckets[i].Load()
		cumulative[i] = run
	}
	return upper, cumulative
}

// ExpBuckets returns n upper bounds starting at start, each factor
// times the previous — the usual latency/size bucket ladder.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefaultLatencyBuckets spans 10µs to ~42s in powers of four —
// wide enough for both a per-batch ingest hop and a slow drain.
func DefaultLatencyBuckets() []float64 { return ExpBuckets(10e-6, 4, 12) }

// series is one (labels, value) member of a family.
type series struct {
	labels []Label
	key    string
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

// family is one named metric: help text, kind, and every label
// combination registered under the name.
type family struct {
	name, help string
	kind       Kind
	series     []*series
}

// Registry holds metric families and hands out update handles.
// Registration takes a lock; handles never do.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelKey canonicalizes a label set for series identity.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// lookup finds or creates the family and the series for (name,
// labels), enforcing kind consistency.
func (r *Registry) lookup(name, help string, kind Kind, labels []Label) *series {
	if name == "" {
		panic("obs: empty metric name")
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	key := labelKey(sorted)

	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.families[name] = f
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v, was %v", name, kind, f.kind))
	}
	for _, s := range f.series {
		if s.key == key {
			return s
		}
	}
	s := &series{labels: sorted, key: key}
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter for (name, labels), creating it on first
// use. Repeated calls with the same identity return the same handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, KindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, KindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge sampled by calling fn at scrape time —
// the right shape for values owned elsewhere (a table size, a buffer
// depth). Re-registering the same identity replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.lookup(name, help, KindGaugeFunc, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	s.fn = fn
}

// Histogram returns the histogram for (name, labels) with the given
// finite upper bounds, creating it on first use. Bounds must be sorted
// ascending; an implicit +Inf bucket is always present.
func (r *Registry) Histogram(name, help string, upper []float64, labels ...Label) *Histogram {
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
		}
	}
	s := r.lookup(name, help, KindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = &Histogram{
			upper:   append([]float64(nil), upper...),
			buckets: make([]atomic.Uint64, len(upper)),
		}
	}
	return s.h
}

// Metric is one snapshotted series, as visited by Each.
type Metric struct {
	// Name, Help and Kind identify the family.
	Name, Help string
	Kind       Kind
	// Labels is the series identity (sorted by label name).
	Labels []Label
	// Value holds the counter, gauge or gauge-func reading.
	Value float64
	// Histogram-only: finite upper bounds, cumulative counts per
	// bound, total count and sum.
	Upper      []float64
	Cumulative []uint64
	Count      uint64
	Sum        float64
}

// Each visits every series in deterministic order: families sorted by
// name, series by label signature. Gauge funcs are sampled during the
// visit. The registry lock is not held across fn, so callbacks may
// touch structures that themselves register metrics.
func (r *Registry) Each(fn func(m Metric)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	type entry struct {
		fam *family
		ser []*series
	}
	entries := make([]entry, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		sers := append([]*series(nil), f.series...)
		sort.Slice(sers, func(i, j int) bool { return sers[i].key < sers[j].key })
		entries = append(entries, entry{fam: f, ser: sers})
	}
	r.mu.Unlock()

	for _, e := range entries {
		for _, s := range e.ser {
			m := Metric{Name: e.fam.name, Help: e.fam.help, Kind: e.fam.kind, Labels: s.labels}
			switch e.fam.kind {
			case KindCounter:
				if s.c != nil {
					m.Value = float64(s.c.Value())
				}
			case KindGauge:
				if s.g != nil {
					m.Value = s.g.Value()
				}
			case KindGaugeFunc:
				if s.fn != nil {
					m.Value = s.fn()
				}
			case KindHistogram:
				if s.h != nil {
					m.Upper, m.Cumulative = s.h.Buckets()
					m.Count = s.h.Count()
					m.Sum = s.h.Sum()
				}
			}
			fn(m)
		}
	}
}

// Package trace holds multi-rate signal traces: per-signal timestamped
// sample series recorded from the broadcast network (or from a vehicle
// data logger), plus the alignment transform that turns them into the
// fixed-step view a monitor evaluates over.
//
// A sample is an *update*: a frame carrying the signal arrived, even if
// the value is unchanged. Preserving updates (not just value changes) is
// what lets the monitor distinguish "the value is constant" from "the
// value is stale because its frame is slower", the multi-rate trap the
// paper describes in Section V.C.1.
package trace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/sigdb"
)

// Sample is one timestamped signal update.
type Sample struct {
	// T is the update time relative to trace start.
	T time.Duration
	// V is the physical value as decoded off the wire.
	V float64
}

// Series is the ordered update history of one signal.
type Series struct {
	// Name is the signal name.
	Name string
	// Samples holds the updates in non-decreasing time order.
	Samples []Sample
}

// Append records an update. Updates must arrive in non-decreasing time
// order.
func (s *Series) Append(t time.Duration, v float64) error {
	if n := len(s.Samples); n > 0 && t < s.Samples[n-1].T {
		return fmt.Errorf("trace: out-of-order sample for %q at %v after %v", s.Name, t, s.Samples[n-1].T)
	}
	s.Samples = append(s.Samples, Sample{T: t, V: v})
	return nil
}

// At returns the held (zero-order-hold) value at time t: the value of
// the latest sample with T <= t. ok is false before the first sample.
func (s *Series) At(t time.Duration) (v float64, ok bool) {
	i := sort.Search(len(s.Samples), func(i int) bool { return s.Samples[i].T > t })
	if i == 0 {
		return 0, false
	}
	return s.Samples[i-1].V, true
}

// Duration returns the time of the last sample, or zero when empty.
func (s *Series) Duration() time.Duration {
	if len(s.Samples) == 0 {
		return 0
	}
	return s.Samples[len(s.Samples)-1].T
}

// Trace is a set of named series recorded over a common timeline.
type Trace struct {
	names  []string
	series map[string]*Series
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{series: make(map[string]*Series)}
}

// Ensure returns the series for name, creating it if absent.
func (tr *Trace) Ensure(name string) *Series {
	if s, ok := tr.series[name]; ok {
		return s
	}
	s := &Series{Name: name}
	tr.series[name] = s
	tr.names = append(tr.names, name)
	return s
}

// Series returns the series for name.
func (tr *Trace) Series(name string) (*Series, bool) {
	s, ok := tr.series[name]
	return s, ok
}

// Names returns the signal names in insertion order.
func (tr *Trace) Names() []string {
	out := make([]string, len(tr.names))
	copy(out, tr.names)
	return out
}

// Duration returns the time of the last sample across all series.
func (tr *Trace) Duration() time.Duration {
	var max time.Duration
	for _, s := range tr.series {
		if d := s.Duration(); d > max {
			max = d
		}
	}
	return max
}

// FromCANLog decodes a CAN frame log into a trace using the signal
// database. This is the monitor's entire view of the system under test.
func FromCANLog(log *can.Log, db *sigdb.DB) (*Trace, error) {
	tr := New()
	// Pre-create series in database order for stable output, and keep a
	// dense index so the decode loop never touches the name map.
	names := db.SignalNames()
	series := make([]*Series, len(names))
	for i, name := range names {
		series[i] = tr.Ensure(name)
	}
	plan := db.CanonicalPlan()
	// Count each signal's updates first so every series is allocated
	// once instead of regrowing as it fills.
	counts := make([]int, len(names))
	for _, f := range log.Frames() {
		dst, _ := plan.Dst(f.ID)
		for _, di := range dst {
			counts[di]++
		}
	}
	for i, s := range series {
		s.Samples = make([]Sample, 0, counts[i])
	}
	scratch := make([]float64, plan.Width())
	for _, f := range log.Frames() {
		dst, ok := plan.Dst(f.ID)
		if !ok {
			// Foreign traffic on the bus is expected; a passive monitor
			// ignores frames it has no definition for.
			continue
		}
		if _, err := plan.UnpackInto(f.ID, f.Data, scratch); err != nil {
			return nil, err
		}
		for _, di := range dst {
			if err := series[di].Append(f.Time, scratch[di]); err != nil {
				return nil, err
			}
		}
	}
	return tr, nil
}

// Grid is the fixed-step view of a trace: for every signal, the held
// value at each step plus whether the signal was freshly updated within
// that step. Steps run from t=0 to the trace duration inclusive.
type Grid struct {
	// Period is the step size.
	Period time.Duration
	// Steps is the number of steps.
	Steps int

	names   []string
	idx     map[string]int
	values  [][]float64
	updated [][]bool
}

// Align samples the trace onto a fixed grid with zero-order hold.
// Steps where a signal has no sample yet hold NaN, which downstream
// evaluation treats as "not yet valid" (the warm-up problem from the
// paper's Section V.C.2).
func Align(tr *Trace, period time.Duration) (*Grid, error) {
	if period <= 0 {
		return nil, fmt.Errorf("trace: non-positive grid period %v", period)
	}
	dur := tr.Duration()
	steps := int(dur/period) + 1
	g := &Grid{
		Period:  period,
		Steps:   steps,
		idx:     make(map[string]int),
		values:  make([][]float64, 0, len(tr.names)),
		updated: make([][]bool, 0, len(tr.names)),
	}
	for _, name := range tr.Names() {
		s := tr.series[name]
		vals := make([]float64, steps)
		upd := make([]bool, steps)
		cur := math.NaN()
		si := 0
		for step := 0; step < steps; step++ {
			stepEnd := time.Duration(step) * period
			for si < len(s.Samples) && s.Samples[si].T <= stepEnd {
				cur = s.Samples[si].V
				upd[step] = true
				si++
			}
			vals[step] = cur
		}
		g.idx[name] = len(g.names)
		g.names = append(g.names, name)
		g.values = append(g.values, vals)
		g.updated = append(g.updated, upd)
	}
	return g, nil
}

// Names returns the signal names carried by the grid.
func (g *Grid) Names() []string {
	out := make([]string, len(g.names))
	copy(out, g.names)
	return out
}

// Has reports whether the grid carries the named signal.
func (g *Grid) Has(name string) bool {
	_, ok := g.idx[name]
	return ok
}

// Values returns the held-value vector for a signal, one entry per step.
// The returned slice is shared with the grid and must not be modified.
func (g *Grid) Values(name string) ([]float64, bool) {
	i, ok := g.idx[name]
	if !ok {
		return nil, false
	}
	return g.values[i], true
}

// Updated returns the per-step freshness vector for a signal: true where
// at least one new sample arrived within the step.
func (g *Grid) Updated(name string) ([]bool, bool) {
	i, ok := g.idx[name]
	if !ok {
		return nil, false
	}
	return g.updated[i], true
}

// TimeAt returns the timestamp of step i.
func (g *Grid) TimeAt(i int) time.Duration {
	return time.Duration(i) * g.Period
}

// NumSteps returns the number of steps; with StepPeriod it lets the
// grid serve directly as a rule-evaluation source.
func (g *Grid) NumSteps() int { return g.Steps }

// StepPeriod returns the step size.
func (g *Grid) StepPeriod() time.Duration { return g.Period }

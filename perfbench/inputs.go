package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/hil"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/wire"
)

// captureLen is the length of every generated capture: long enough for
// the follow scenario's dynamics to produce violations.
const captureLen = 60 * time.Second

// sendWindow is the capture time one uplink batch spans, as
// fleet.Client.Replay batches a recording.
const sendWindow = 100 * time.Millisecond

// capture is one generated input with its set-up references.
type capture struct {
	frames []can.Frame
	log    *can.Log
	// runs are the frame runs one session uplinks, each spanning at
	// most sendWindow of capture time (or paceWindow on paced).
	runs [][]can.Frame
	// verdict and events are the streaming monitor's output over the
	// whole capture: the reference every path must reproduce.
	verdict wire.Verdict
	events  []wire.Event
	// deciding holds, for each begin event in events order, the index
	// of the frame whose push first returned it (len(frames)-1 for
	// events only Close decides); decidingAt is the capture time of the
	// last frame of the run carrying it — the run's due time when paced.
	deciding   []int
	decidingAt []time.Duration
}

// injections are the faults the HIL capture generator holds on FSRACC
// inputs, one per capture; a pool cycles through all of them.
var injections = []struct {
	signal string
	value  float64
}{
	{sigdb.SigTargetRange, math.NaN()},
	{sigdb.SigTargetRange, 0.5},
	{sigdb.SigVelocity, 80},
	{sigdb.SigACCSetSpeed, 5},
	{sigdb.SigTargetRelVel, -30},
}

// hilCapture runs the follow scenario for captureLen with one fault
// held over a seeded window.
func hilCapture(seed int64, kind int) (*can.Log, error) {
	rng := rand.New(rand.NewSource(seed))
	inj := injections[kind%len(injections)]
	start := time.Duration(10+rng.Intn(20)) * time.Second
	hold := time.Duration(5+rng.Intn(16)) * time.Second
	bench, err := hil.New(scenario.Follow(seed, captureLen))
	if err != nil {
		return nil, err
	}
	err = bench.Run(captureLen, func(now time.Duration, b *hil.Bench) error {
		switch now {
		case start:
			return b.SetInjection(inj.signal, inj.value)
		case start + hold:
			b.ClearInjection(inj.signal)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return bench.Log(), nil
}

// denseCapture synthesizes a violation-dense bus capture directly, as
// the fleet and recheck benchmarks do: steady following traffic with
// seeded short ServiceACC/ACCEnabled conflicts (Rule0) and brake
// requests with a positive deceleration (Rule5).
func denseCapture(seed int64) (*can.Log, error) {
	rng := rand.New(rand.NewSource(seed))
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		return nil, err
	}
	bus := can.NewBus(db, sched)
	ticks := int(captureLen / sigdb.FastPeriod)
	conflict, brake := 0, 0 // remaining ticks of each fault, negative = gap
	for tick := 0; tick < ticks; tick++ {
		if conflict == 0 {
			conflict = 5 + rng.Intn(15)
		}
		if brake == 0 {
			brake = 5 + rng.Intn(25)
		}
		on := conflict > 0
		set := func(name string, v float64) {
			if err == nil {
				err = bus.Set(name, v)
			}
		}
		set(sigdb.SigVelocity, 24+rng.Float64())
		set(sigdb.SigACCSetSpeed, 25)
		set(sigdb.SigVehicleAhead, 1)
		set(sigdb.SigTargetRange, 40+rng.Float64())
		set(sigdb.SigServiceACC, b2f(on))
		set(sigdb.SigACCEnabled, b2f(on))
		set(sigdb.SigBrakeRequested, b2f(brake > 0))
		set(sigdb.SigRequestedDecel, cond(brake > 0, 1.5, -1))
		if err != nil {
			return nil, err
		}
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			return nil, err
		}
		conflict = stepFault(conflict, rng, 10, 30)
		brake = stepFault(brake, rng, 10, 40)
	}
	return bus.Log(), nil
}

// stepFault advances a fault countdown: a running fault counts down
// into a gap of lo..hi ticks, a gap counts up to 0, where the next
// fault starts.
func stepFault(n int, rng *rand.Rand, lo, hi int) int {
	switch {
	case n > 1:
		return n - 1
	case n == 1:
		return -(lo + rng.Intn(hi-lo))
	default:
		return n + 1
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func cond(c bool, a, b float64) float64 {
	if c {
		return a
	}
	return b
}

// newCapture computes a capture's references with the streaming
// monitor and cuts its uplink runs.
func newCapture(log *can.Log, mon *core.Monitor, window time.Duration) (*capture, error) {
	c := &capture{log: log, frames: log.Frames()}
	if len(c.frames) == 0 {
		return nil, errors.New("empty capture")
	}
	c.runs = cutRuns(c.frames, window)
	om, err := mon.Online(sigdb.Vehicle())
	if err != nil {
		return nil, err
	}
	for i, f := range c.frames {
		evs, err := om.PushFrame(f)
		if err != nil {
			return nil, err
		}
		c.addEvents(evs, i)
	}
	evs, err := om.Close()
	if err != nil {
		return nil, err
	}
	c.addEvents(evs, len(c.frames)-1)
	end := 0
	ends := make([]int, len(c.runs))
	for i, r := range c.runs {
		end += len(r)
		ends[i] = end
	}
	for _, fi := range c.deciding {
		r := sort.SearchInts(ends, fi+1)
		c.decidingAt = append(c.decidingAt, lastTime(c.runs[r]))
	}
	c.verdict = verdictFromEvents(mon.RuleNames(), c.events)
	c.verdict.FramesIngested = uint64(len(c.frames))
	return c, nil
}

func (c *capture) addEvents(evs []core.OnlineEvent, frame int) {
	for _, e := range evs {
		w := toWire(e)
		if w.Kind == wire.EventBegin {
			c.deciding = append(c.deciding, frame)
		}
		c.events = append(c.events, w)
	}
}

// cutRuns splits frames into runs spanning at most window of capture
// time and at most the wire's batch limit, as Client.Replay does.
func cutRuns(frames []can.Frame, window time.Duration) [][]can.Frame {
	var runs [][]can.Frame
	for i := 0; i < len(frames); {
		j := i + 1
		end := frames[i].Time + window
		for j < len(frames) && frames[j].Time < end && j-i < 4096 {
			j++
		}
		runs = append(runs, frames[i:j])
		i = j
	}
	return runs
}

// toWire converts a monitor event as the fleet session does.
func toWire(e core.OnlineEvent) wire.Event {
	w := wire.Event{Rule: e.Rule, Time: e.Time}
	switch e.Kind {
	case speclang.ViolationBegin:
		w.Kind = wire.EventBegin
	case speclang.ViolationEnd:
		w.Kind = wire.EventEnd
		v := e.Violation
		w.StartStep = uint32(v.StartStep)
		w.EndStep = uint32(v.EndStep)
		w.Start = v.Start
		w.End = v.End
		w.Peak = v.Peak
		w.Msg = v.Msg
		w.Class = uint8(e.Class)
	}
	return w
}

// verdictFromEvents tallies closed violations per rule, in rule order,
// as the fleet session builds its verdict.
func verdictFromEvents(ruleNames []string, evs []wire.Event) wire.Verdict {
	idx := map[string]int{}
	v := wire.Verdict{}
	for i, n := range ruleNames {
		idx[n] = i
		v.Rules = append(v.Rules, wire.RuleVerdict{Rule: n})
	}
	for _, e := range evs {
		if e.Kind != wire.EventEnd {
			continue
		}
		r := &v.Rules[idx[e.Rule]]
		r.Violated = true
		r.Violations++
		switch core.Class(e.Class) {
		case core.ClassReal:
			r.Real++
		case core.ClassTransient:
			r.Transient++
		case core.ClassNegligible:
			r.Negligible++
		}
	}
	return v
}

// verdictFromReport builds the rule part of a verdict from a batch
// CheckLog report.
func verdictFromReport(rep *core.Report) wire.Verdict {
	v := wire.Verdict{}
	for _, r := range rep.Rules {
		n := uint32(len(r.Result.Violations))
		v.Rules = append(v.Rules, wire.RuleVerdict{
			Rule:       r.Name(),
			Violated:   n > 0,
			Violations: n,
			Real:       uint32(r.Count(core.ClassReal)),
			Transient:  uint32(r.Count(core.ClassTransient)),
			Negligible: uint32(r.Count(core.ClassNegligible)),
		})
	}
	return v
}

// sameRules reports whether two verdicts agree rule for rule.
func sameRules(a, b wire.Verdict) error {
	if len(a.Rules) != len(b.Rules) {
		return fmt.Errorf("%d rules, reference has %d", len(a.Rules), len(b.Rules))
	}
	for i := range a.Rules {
		if a.Rules[i] != b.Rules[i] {
			return fmt.Errorf("rule %s: got %+v, reference %+v", b.Rules[i].Rule, a.Rules[i], b.Rules[i])
		}
	}
	return nil
}

// checkSession compares one fleet session's verdict and event stream
// against the capture's reference.
func (c *capture) checkSession(v *wire.Verdict, evs []wire.Event) error {
	if v == nil {
		return errors.New("no verdict")
	}
	if err := sameRules(*v, c.verdict); err != nil {
		return err
	}
	if v.FramesIngested != c.verdict.FramesIngested || v.FramesDropped != 0 || v.FramesRejected != 0 {
		return fmt.Errorf("frames ingested/dropped/rejected %d/%d/%d, want %d/0/0",
			v.FramesIngested, v.FramesDropped, v.FramesRejected, c.verdict.FramesIngested)
	}
	if len(evs) != len(c.events) {
		return fmt.Errorf("%d events, reference has %d", len(evs), len(c.events))
	}
	for i := range evs {
		a, b := evs[i], c.events[i]
		if math.Float64bits(a.Peak) != math.Float64bits(b.Peak) {
			return fmt.Errorf("event %d peak %v, reference %v", i, a.Peak, b.Peak)
		}
		a.Peak, b.Peak = 0, 0
		if a != b {
			return fmt.Errorf("event %d: got %+v, reference %+v", i, a, b)
		}
	}
	return nil
}

// hilCaptures generates n seeded HIL captures with their references.
// The pool cycles through every injection kind, so its mix of
// violations, and hence its cost, varies little from seed to seed.
func hilCaptures(seed int64, n int, mon *core.Monitor) ([]*capture, error) {
	var out []*capture
	for i := 0; i < n; i++ {
		log, err := hilCapture(seed*1000+int64(i), i)
		if err != nil {
			return nil, err
		}
		c, err := newCapture(log, mon, sendWindow)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

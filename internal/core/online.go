package core

import (
	"fmt"
	"math"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
)

// OnlineEvent is one incremental oracle notification: a violation
// opening or closing, delivered a bounded number of steps after the
// fact (the rule's temporal horizon).
type OnlineEvent struct {
	// Rule is the reporting rule.
	Rule string
	// Kind is speclang.ViolationBegin or speclang.ViolationEnd.
	Kind speclang.EventKind
	// Time is the violation start (Begin) or exclusive end (End).
	Time time.Duration
	// Violation is the completed record, set on ViolationEnd.
	Violation speclang.Violation
	// Class is the triage classification, set on ViolationEnd.
	Class Class
}

// OnlineMonitor is the runtime variant of the bolt-on oracle: CAN
// frames are pushed as they are captured and violation events come back
// incrementally with bounded memory and latency. The paper ran offline
// for flexibility but notes "there is no fundamental reason the
// monitoring could not be done at runtime"; this is that path, and it
// produces byte-for-byte the same violations as CheckLog.
//
// The steady-state frame→verdict path is allocation-free: frames
// decode through a compiled sigdb.DecodePlan straight into the latched
// value vector, and events are assembled in a scratch buffer reused
// across calls.
type OnlineMonitor struct {
	plan   *sigdb.DecodePlan
	period time.Duration
	triage map[string]Triage
	sc     *speclang.StreamChecker

	names []string

	latched []float64
	updated []bool

	// events is the scratch buffer returned by PushFrame, PushFrames
	// and Close; see the event-lifetime contract on PushFrame.
	events []OnlineEvent

	pending    int           // the step currently accumulating frames
	pendingEnd time.Duration // its window's end, pending*period
	queued     bool          // steps pushed to the checker since the last flush
	lastTime   time.Duration // time of the newest accepted frame
	sawFrame   bool
	closed     bool

	// met, when non-nil, receives frame/step/event accounting; see
	// Instrument and metrics.go. All updates are atomic, so the
	// allocation-free contract above holds with metrics enabled.
	met *Metrics

	// Frame and step counts since the last publish: plain fields bumped
	// on the hot path and added to met's shared counters once per
	// PushFrame, PushFrames or Close return.
	nDecoded, nStale, nSteps uint64

	// Timed calls (see stagetiming.go). untimed counts the steps
	// finalized since the last timed call that finalized any; ruleNanos
	// is the per-rule accumulator the checker is armed with during a
	// timed call, and callNanos that call's wall time; stage is set from
	// BeginStageTiming to EndStageTiming.
	untimed   uint64
	ruleNanos []int64
	callNanos int64
	stage     bool
}

// Online creates a streaming session of this monitor over the given
// signal database.
func (m *Monitor) Online(db *sigdb.DB) (*OnlineMonitor, error) {
	names := db.SignalNames()
	sc, err := m.rules.NewStreamChecker(names, m.period, speclang.EvalOptions{DeltaMode: m.mode})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	plan, err := db.CompilePlan(names)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	o := &OnlineMonitor{
		plan:      plan,
		period:    m.period,
		triage:    m.triage,
		sc:        sc,
		names:     names,
		latched:   make([]float64, len(names)),
		updated:   make([]bool, len(names)),
		untimed:   stepSampleEvery, // the first call is due
		ruleNanos: make([]int64, sc.NumRules()),
	}
	for i := range o.latched {
		o.latched[i] = math.NaN() // not yet valid, as offline alignment
	}
	return o, nil
}

// PushFrame feeds one captured frame. Frames must arrive in
// non-decreasing time order: a frame whose timestamp equals the
// previous frame's is accepted (broadcast buses deliver many frames in
// the same capture instant), while a frame with a strictly earlier
// timestamp is rejected with an error. A rejection leaves the monitor's
// state untouched — no step is finalized and no signal latches — so the
// caller may drop the offending frame and keep pushing; the session
// remains valid. Frames with IDs outside the database are ignored, as a
// passive listener ignores foreign traffic.
//
// Event lifetime: the returned slice is a scratch buffer owned by the
// monitor and is valid only until the next PushFrame, PushFrames or
// Close call. Callers that retain events across pushes must copy the
// elements out (appending them to another slice suffices).
func (o *OnlineMonitor) PushFrame(f can.Frame) ([]OnlineEvent, error) {
	if o.closed {
		return nil, fmt.Errorf("core: PushFrame after Close")
	}
	if o.sawFrame && f.Time < o.lastTime {
		return nil, fmt.Errorf("core: out-of-order frame at %v after %v", f.Time, o.lastTime)
	}
	o.events = o.events[:0]
	defer o.endCall(o.beginCall())
	err := o.push(&f)
	if ferr := o.flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return o.events, nil
}

// PushFrames feeds a whole batch of captured frames in one call,
// amortizing per-call overhead — the fleet ingest path hands entire
// wire batches here. Unlike PushFrame, a frame whose timestamp
// regresses is skipped and counted in rejected rather than failing the
// batch, mirroring the drop-and-continue recovery the PushFrame
// contract allows; the monitor's state is untouched by skipped frames.
// The returned events cover the whole batch in stream order and obey
// the same scratch-buffer lifetime as PushFrame.
func (o *OnlineMonitor) PushFrames(frames []can.Frame) (events []OnlineEvent, rejected int, err error) {
	if o.closed {
		return nil, 0, fmt.Errorf("core: PushFrames after Close")
	}
	o.events = o.events[:0]
	defer o.endCall(o.beginCall())
	for i := range frames {
		f := &frames[i]
		if o.sawFrame && f.Time < o.lastTime {
			rejected++
			o.nStale++
			continue
		}
		if err = o.push(f); err != nil {
			break
		}
	}
	if ferr := o.flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return nil, rejected, err
	}
	return o.events, rejected, nil
}

// push feeds one in-order frame, appending decided events to the
// scratch buffer.
func (o *OnlineMonitor) push(f *can.Frame) error {
	fp := o.plan.Lookup(f.ID)
	if fp == nil {
		return nil
	}
	o.nDecoded++
	o.sawFrame = true
	o.lastTime = f.Time

	// The frame belongs to the step whose window (stepTime-period,
	// stepTime] contains its timestamp: finalize every pending step
	// whose window ends before it.
	for f.Time > o.pendingEnd {
		if err := o.finalizeStep(); err != nil {
			return err
		}
	}

	// Decode straight into the latched vector and mark the fresh
	// signals: no map, no hashing, one plan lookup.
	fp.Latch(f.Data, o.latched, o.updated)
	return nil
}

// finalizeStep pushes the pending step into the checker and converts
// the events of any block that push ran into the scratch buffer. The
// checker queues steps into blocks; PushFrame, PushFrames and Close
// flush before they return, so a call's steps run as one block and no
// event is decided later than the call that finalized its step.
func (o *OnlineMonitor) finalizeStep() error {
	evs, err := o.sc.Push(o.latched, o.updated)
	if err != nil {
		return err
	}
	o.queued = true
	o.nSteps++
	for i := range o.updated {
		o.updated[i] = false
	}
	o.pending++
	o.pendingEnd += o.period
	if len(evs) > 0 {
		o.convert(evs)
	}
	return nil
}

// flush runs the steps the checker still queues and converts their
// events. Most frames finalize no step, so the common case returns at
// once, inlined into its caller.
func (o *OnlineMonitor) flush() error {
	if !o.queued {
		return nil
	}
	return o.flushQueued()
}

func (o *OnlineMonitor) flushQueued() error {
	o.queued = false
	evs, err := o.sc.Flush()
	if err != nil {
		return err
	}
	if len(evs) > 0 {
		o.convert(evs)
	}
	return nil
}

// Close finalizes the trace — steps up to the last frame's grid slot,
// exactly the steps the offline alignment evaluates — drains every
// rule, and returns the remaining events. The returned slice obeys the
// same scratch-buffer lifetime as PushFrame (no further calls can
// invalidate it, but it shares storage with previously returned
// slices).
func (o *OnlineMonitor) Close() ([]OnlineEvent, error) {
	if o.closed {
		return nil, fmt.Errorf("core: Close called twice")
	}
	o.events = o.events[:0]
	defer o.endCall(o.beginCall())
	last := int(o.lastTime / o.period) // floor: trailing partial-step frames fall outside the grid
	for o.pending <= last {
		if err := o.finalizeStep(); err != nil {
			return nil, err
		}
	}
	o.closed = true
	evs, err := o.sc.Finish()
	if err != nil {
		return nil, err
	}
	o.convert(evs)
	return o.events, nil
}

// convert appends checker events to the monitor's scratch buffer,
// attaching triage classes to closed violations.
func (o *OnlineMonitor) convert(evs []speclang.Event) {
	for _, e := range evs {
		oe := OnlineEvent{Rule: e.Rule, Kind: e.Kind, Time: e.Time, Violation: e.Violation}
		if e.Kind == speclang.ViolationEnd {
			oe.Class = o.triage[e.Rule].Classify(e.Violation)
		}
		if o.met != nil {
			o.met.events.Inc()
			if e.Kind == speclang.ViolationEnd {
				if i, ok := o.met.ruleIndex[e.Rule]; ok {
					o.met.ruleViolations[i].Inc()
				}
			}
		}
		o.events = append(o.events, oe)
	}
}

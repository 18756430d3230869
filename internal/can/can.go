// Package can models the vehicle's broadcast network: timestamped
// frames, a latching broadcast bus, a periodic transmit schedule with
// bounded jitter, and a frame log.
//
// The monitor's passivity argument rests on this package: the only thing
// the monitor ever consumes is a Log, which is exactly what a bolt-on
// listener tapping the physical bus would record.
package can

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"cpsmon/internal/sigdb"
)

// Frame is one broadcast CAN frame with its capture timestamp.
type Frame struct {
	// Time is the capture time relative to the start of the recording.
	Time time.Duration
	// ID is the CAN identifier.
	ID uint32
	// Data is the 8-byte payload.
	Data [8]byte
}

// Log is an append-only recording of broadcast frames, ordered by time.
type Log struct {
	frames []Frame
}

// Append records a frame. Frames must be appended in non-decreasing time
// order; out-of-order appends are rejected so a log is always a valid
// trace source.
func (l *Log) Append(f Frame) error {
	n := len(l.frames)
	if n > 0 && f.Time < l.frames[n-1].Time {
		return fmt.Errorf("can: out-of-order append at %v after %v", f.Time, l.frames[n-1].Time)
	}
	if n == cap(l.frames) {
		// Double a full log: append alone grows a large slice by only
		// about 1.25x, so a growing capture would be copied some three
		// times as often.
		l.frames = slices.Grow(l.frames, max(n, 1))
	}
	l.frames = append(l.frames, f)
	return nil
}

// Grow reserves room for at least n more frames, so that the next n
// appends do not reallocate.
func (l *Log) Grow(n int) {
	if n > 0 {
		l.frames = slices.Grow(l.frames, n)
	}
}

// Len returns the number of recorded frames.
func (l *Log) Len() int { return len(l.frames) }

// Frames returns the recorded frames. The returned slice is shared with
// the log and must not be modified.
func (l *Log) Frames() []Frame { return l.frames }

// Duration returns the timestamp of the last recorded frame, or zero for
// an empty log.
func (l *Log) Duration() time.Duration {
	if len(l.frames) == 0 {
		return 0
	}
	return l.frames[len(l.frames)-1].Time
}

var logMagic = [8]byte{'C', 'P', 'S', 'C', 'A', 'N', '1', '\n'}

// WriteTo serializes the log in a compact binary format.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	m, err := bw.Write(logMagic[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(l.frames)))
	m, err = bw.Write(hdr[:])
	n += int64(m)
	if err != nil {
		return n, err
	}
	var rec [20]byte
	for _, f := range l.frames {
		binary.LittleEndian.PutUint64(rec[0:8], uint64(f.Time))
		binary.LittleEndian.PutUint32(rec[8:12], f.ID)
		copy(rec[12:20], f.Data[:])
		m, err = bw.Write(rec[:])
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadLog deserializes a log written by WriteTo.
func ReadLog(r io.Reader) (*Log, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("can: read log header: %w", err)
	}
	if magic != logMagic {
		return nil, errors.New("can: not a CAN log (bad magic)")
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("can: read log length: %w", err)
	}
	count := binary.LittleEndian.Uint64(hdr[:])
	const maxFrames = 1 << 28 // sanity bound: ~5 GiB of records
	if count > maxFrames {
		return nil, fmt.Errorf("can: implausible frame count %d", count)
	}
	// The count is the file's claim, not a fact: reserve at most
	// maxReserve frames up front and let Append grow the log as records
	// actually arrive, so a short file cannot make us reserve gigabytes.
	const maxReserve = 1 << 16
	l := &Log{frames: make([]Frame, 0, min(count, maxReserve))}
	var rec [20]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("can: read frame %d: %w", i, err)
		}
		f := Frame{
			Time: time.Duration(binary.LittleEndian.Uint64(rec[0:8])),
			ID:   binary.LittleEndian.Uint32(rec[8:12]),
		}
		copy(f.Data[:], rec[12:20])
		if err := l.Append(f); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// TxSchedule decides when each periodic frame is due, including the
// bounded jitter the paper observed: a slow frame occasionally slips by
// one base tick, so five fast updates land between two slow updates.
type TxSchedule struct {
	base       time.Duration
	jitterProb float64
	rng        *rand.Rand
	// order holds the frame IDs in ascending order; period and next are
	// parallel to it, so Due walks three slices and hashes nothing.
	order  []uint32
	period []time.Duration
	next   []time.Duration
	due    []uint32 // reusable Due result buffer
}

// NewTxSchedule builds a schedule for every frame in the database.
// base is the simulation tick; jitterProb is the per-emission probability
// that a frame slower than base slips by one tick. rng may be nil when
// jitterProb is zero.
func NewTxSchedule(db *sigdb.DB, base time.Duration, jitterProb float64, rng *rand.Rand) (*TxSchedule, error) {
	if base <= 0 {
		return nil, fmt.Errorf("can: non-positive base tick %v", base)
	}
	if jitterProb < 0 || jitterProb > 1 {
		return nil, fmt.Errorf("can: jitter probability %v out of [0,1]", jitterProb)
	}
	if jitterProb > 0 && rng == nil {
		return nil, errors.New("can: jitter requires a random source")
	}
	frames := db.Frames() // sorted by ID
	s := &TxSchedule{
		base:       base,
		jitterProb: jitterProb,
		rng:        rng,
		order:      make([]uint32, len(frames)),
		period:     make([]time.Duration, len(frames)),
		next:       make([]time.Duration, len(frames)),
	}
	for i, f := range frames {
		if f.Period%base != 0 {
			return nil, fmt.Errorf("can: frame %q period %v is not a multiple of tick %v", f.Name, f.Period, base)
		}
		s.order[i] = f.ID
		s.period[i] = f.Period
	}
	return s, nil
}

// Due returns the IDs of frames due at time now and schedules their next
// emissions. IDs are returned in ascending order for determinism. The
// returned slice is the schedule's reusable scratch — valid only until
// the next call to Due.
func (s *TxSchedule) Due(now time.Duration) []uint32 {
	due := s.due[:0]
	for i, id := range s.order {
		if s.next[i] > now {
			continue
		}
		due = append(due, id)
		period := s.period[i]
		next := s.next[i] + period
		if period > s.base && s.jitterProb > 0 && s.rng.Float64() < s.jitterProb {
			next += s.base
		}
		// Catch up if the caller skipped ticks.
		for next <= now {
			next += period
		}
		s.next[i] = next
	}
	s.due = due
	return due
}

// MaxFrames bounds how many frames Due can return, summed over every
// call, for times in a window of length span. Consecutive emissions of
// a frame lie at least its period apart (jitter and catch-up only delay
// them), so each frame contributes at most span/period+1.
func (s *TxSchedule) MaxFrames(span time.Duration) int {
	if span <= 0 {
		return 0
	}
	n := 0
	for _, p := range s.period {
		n += int(span/p) + 1
	}
	return n
}

// Bus is a latching broadcast bus. Publishers update their local copies
// of signals with Set; on each Step the due frames are packed from those
// copies, logged, and latched so that receivers observe them via Read.
//
// This models the real system's semantics: a receiver holds the most
// recently broadcast value of a signal until the next frame carrying it
// arrives, which is the root of the multi-rate sampling issues explored
// in the paper's Section V.C.1.
type Bus struct {
	sched *TxSchedule
	// plan packs and unpacks frames against the slot vectors below —
	// the simulation ticks millions of times per campaign, so the bus
	// works in flat vectors (no map lookup per SetSlot, ReadSlot or
	// Step) instead of allocating a value map per frame.
	plan    *sigdb.DecodePlan
	slot    map[string]int
	pending []float64
	latched []float64
	log     *Log
}

// NewBus creates a bus over the database with the given transmit
// schedule. All signals start latched at zero, matching a network where
// nodes boot broadcasting default values.
func NewBus(db *sigdb.DB, sched *TxSchedule) *Bus {
	names := db.SignalNames()
	b := &Bus{
		sched:   sched,
		plan:    db.CanonicalPlan(),
		slot:    make(map[string]int, len(names)),
		pending: make([]float64, len(names)),
		latched: make([]float64, len(names)),
		log:     &Log{},
	}
	for i, name := range names {
		b.slot[name] = i
	}
	return b
}

// Slot resolves a signal name to the integer handle SetSlot and
// ReadSlot take. Resolve once, when wiring a node to the bus, so that
// per-tick publishing and reading hash no names.
func (b *Bus) Slot(name string) (int, bool) {
	i, ok := b.slot[name]
	return i, ok
}

// SetSlot updates the publisher-side value of the signal at slot i. The
// new value is not visible to receivers until the carrying frame is
// next transmitted.
func (b *Bus) SetSlot(i int, v float64) { b.pending[i] = v }

// ReadSlot returns the last broadcast value of the signal at slot i, as
// any receiver on the bus would observe it.
func (b *Bus) ReadSlot(i int) float64 { return b.latched[i] }

// Set is SetSlot by signal name.
func (b *Bus) Set(name string, v float64) error {
	i, ok := b.slot[name]
	if !ok {
		return fmt.Errorf("can: set of unknown signal %q", name)
	}
	b.SetSlot(i, v)
	return nil
}

// Read is ReadSlot by signal name.
func (b *Bus) Read(name string) (float64, error) {
	i, ok := b.slot[name]
	if !ok {
		return 0, fmt.Errorf("can: read of unknown signal %q", name)
	}
	return b.ReadSlot(i), nil
}

// Step transmits every frame due at time now: packs the pending signal
// values, appends the frame to the log, and latches the values for
// receivers.
func (b *Bus) Step(now time.Duration) error {
	for _, id := range b.sched.Due(now) {
		fp := b.plan.Lookup(id)
		if fp == nil {
			return sigdb.ErrUnknownFrame
		}
		data := fp.Pack(b.pending)
		if err := b.log.Append(Frame{Time: now, ID: id, Data: data}); err != nil {
			return err
		}
		// Latch what actually went over the wire (float32 precision,
		// saturated enums), not the publisher's float64 copy, so that
		// receivers and the offline monitor observe identical values.
		fp.Unpack(data, b.latched)
	}
	return nil
}

// Log returns the frame log accumulated so far.
func (b *Bus) Log() *Log { return b.log }

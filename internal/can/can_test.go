package can

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"cpsmon/internal/sigdb"
)

func TestLogAppendOrdering(t *testing.T) {
	var l Log
	if err := l.Append(Frame{Time: 10 * time.Millisecond}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Append(Frame{Time: 10 * time.Millisecond}); err != nil {
		t.Fatalf("append equal time: %v", err)
	}
	if err := l.Append(Frame{Time: 5 * time.Millisecond}); err == nil {
		t.Fatal("out-of-order append accepted, want error")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d, want 2", l.Len())
	}
	if l.Duration() != 10*time.Millisecond {
		t.Errorf("Duration = %v, want 10ms", l.Duration())
	}
}

func TestEmptyLogDuration(t *testing.T) {
	var l Log
	if l.Duration() != 0 {
		t.Errorf("empty log Duration = %v, want 0", l.Duration())
	}
}

func TestLogWriteReadRoundTrip(t *testing.T) {
	var l Log
	for i := 0; i < 100; i++ {
		f := Frame{
			Time: time.Duration(i) * 10 * time.Millisecond,
			ID:   uint32(0x100 + i%7),
		}
		for j := range f.Data {
			f.Data[j] = byte(i + j)
		}
		if err := l.Append(f); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatalf("ReadLog: %v", err)
	}
	if got.Len() != l.Len() {
		t.Fatalf("round trip Len = %d, want %d", got.Len(), l.Len())
	}
	for i, f := range got.Frames() {
		if f != l.Frames()[i] {
			t.Fatalf("frame %d = %+v, want %+v", i, f, l.Frames()[i])
		}
	}
}

func TestReadLogRejectsBadMagic(t *testing.T) {
	if _, err := ReadLog(bytes.NewReader([]byte("NOTACAN\nxxxxxxxx"))); err == nil {
		t.Fatal("ReadLog accepted bad magic, want error")
	}
}

func TestReadLogTruncated(t *testing.T) {
	var l Log
	_ = l.Append(Frame{Time: time.Millisecond, ID: 1})
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadLog(bytes.NewReader(trunc)); err == nil {
		t.Fatal("ReadLog accepted truncated input, want error")
	}
}

// TestReadLogClaimedCountDoesNotReserve feeds ReadLog a bare header
// that claims the largest accepted frame count and carries no records.
// It must fail on truncation without first reserving room for every
// claimed frame (that reservation alone would be ~6 GiB).
func TestReadLogClaimedCountDoesNotReserve(t *testing.T) {
	hdr := append(logMagic[:], make([]byte, 8)...)
	binary.LittleEndian.PutUint64(hdr[8:], 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadLog(bytes.NewReader(hdr))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("ReadLog accepted a header with no records")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("ReadLog allocated %d bytes for a 16-byte input, want < 8 MiB", alloc)
	}
}

// FuzzReadLog feeds arbitrary bytes to the log reader: it must return a
// log or an error, never panic, and a log it accepts must survive a
// write/read round trip unchanged.
func FuzzReadLog(f *testing.F) {
	var l Log
	for i := 0; i < 5; i++ {
		_ = l.Append(Frame{Time: time.Duration(i) * time.Millisecond, ID: uint32(0x100 + i), Data: [8]byte{byte(i), 1, 2, 3}})
	}
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()-7])
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		again, err := ReadLog(&out)
		if err != nil {
			t.Fatalf("re-read of an accepted log: %v", err)
		}
		if again.Len() != got.Len() {
			t.Fatalf("round trip changed length %d -> %d", got.Len(), again.Len())
		}
		for i, fr := range again.Frames() {
			if fr != got.Frames()[i] {
				t.Fatalf("frame %d changed in round trip", i)
			}
		}
	})
}

func TestLogGrowKeepsFramesAndReserves(t *testing.T) {
	var l Log
	_ = l.Append(Frame{Time: 1, ID: 7})
	l.Grow(100)
	if l.Len() != 1 || l.Frames()[0].ID != 7 {
		t.Fatalf("Grow changed the log: %+v", l.Frames())
	}
	first := &l.Frames()[0]
	for i := 0; i < 100; i++ {
		_ = l.Append(Frame{Time: 2})
	}
	if &l.Frames()[0] != first {
		t.Error("appends within the reservation reallocated the log")
	}
	l.Grow(-1) // no-op
}

// logAppendFrames is one 60 s capture of the vehicle bus.
const logAppendFrames = 37500

// TestLogAppendDoublesWhenFull pins the growth of an unreserved log:
// appending a capture's frames reallocates it only as often as doubling
// from one frame would, and never loses or reorders a frame.
func TestLogAppendDoublesWhenFull(t *testing.T) {
	var l Log
	reallocs, last := 0, -1
	for i := 0; i < logAppendFrames; i++ {
		if err := l.Append(Frame{Time: time.Duration(i), ID: uint32(i)}); err != nil {
			t.Fatal(err)
		}
		if c := cap(l.frames); c != last {
			reallocs, last = reallocs+1, c
		}
	}
	// Doubling from one frame reaches 37 500 frames in at most 17
	// allocations (2^16 >= 37 500); append's own 1.25x growth past 256
	// frames takes 24.
	if want := bits.Len(logAppendFrames) + 1; reallocs > want {
		t.Errorf("appending %d frames reallocated the log %d times, want at most %d", logAppendFrames, reallocs, want)
	}
	for i, f := range l.Frames() {
		if f.ID != uint32(i) {
			t.Fatalf("frame %d has ID %d", i, f.ID)
		}
	}
}

// BenchmarkLogAppend appends one capture's frames to an unreserved
// log, as can.Bus.Step records a bus with no reservation.
func BenchmarkLogAppend(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var l Log
		for k := 0; k < logAppendFrames; k++ {
			if err := l.Append(Frame{Time: time.Duration(k)}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestTxScheduleMaxFramesBounds checks that MaxFrames bounds what a
// jittered schedule actually emits over windows of several lengths,
// starting anywhere in the run.
func TestTxScheduleMaxFramesBounds(t *testing.T) {
	db := sigdb.Vehicle()
	s, err := NewTxSchedule(db, sigdb.FastPeriod, 0.5, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	const ticks = 3000
	perTick := make([]int, ticks)
	for tick := range perTick {
		perTick[tick] = len(s.Due(time.Duration(tick) * sigdb.FastPeriod))
	}
	for _, span := range []int{1, 3, 4, 7, 40, 1000} {
		bound := s.MaxFrames(time.Duration(span) * sigdb.FastPeriod)
		for start := 0; start+span <= ticks; start += 17 {
			n := 0
			for _, c := range perTick[start : start+span] {
				n += c
			}
			if n > bound {
				t.Fatalf("%d frames in %d ticks from tick %d, MaxFrames says at most %d", n, span, start, bound)
			}
		}
	}
	if got := s.MaxFrames(0); got != 0 {
		t.Errorf("MaxFrames(0) = %d, want 0", got)
	}
}

func TestTxScheduleBasic(t *testing.T) {
	db := sigdb.Vehicle()
	s, err := NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	// Tick 0: every frame is due.
	if got := len(s.Due(0)); got != 7 {
		t.Fatalf("due at t=0: %d frames, want 7", got)
	}
	// Tick 1 (10 ms): only the six fast frames.
	if got := len(s.Due(sigdb.FastPeriod)); got != 6 {
		t.Fatalf("due at t=10ms: %d frames, want 6", got)
	}
	// Tick 4 (40 ms): all seven again.
	s.Due(2 * sigdb.FastPeriod)
	s.Due(3 * sigdb.FastPeriod)
	if got := len(s.Due(4 * sigdb.FastPeriod)); got != 7 {
		t.Fatalf("due at t=40ms: %d frames, want 7", got)
	}
}

func TestTxScheduleJitterSlipsSlowFrames(t *testing.T) {
	db := sigdb.Vehicle()
	rng := rand.New(rand.NewSource(7))
	s, err := NewTxSchedule(db, sigdb.FastPeriod, 0.5, rng)
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	// Track gaps between ACCCommand emissions over many ticks.
	var emissions []time.Duration
	for tick := 0; tick < 2000; tick++ {
		now := time.Duration(tick) * sigdb.FastPeriod
		for _, id := range s.Due(now) {
			if id == sigdb.FrameACCCommand {
				emissions = append(emissions, now)
			}
		}
	}
	if len(emissions) < 100 {
		t.Fatalf("only %d slow emissions; schedule broken", len(emissions))
	}
	slipped, nominal := 0, 0
	for i := 1; i < len(emissions); i++ {
		switch emissions[i] - emissions[i-1] {
		case sigdb.SlowPeriod:
			nominal++
		case sigdb.SlowPeriod + sigdb.FastPeriod:
			slipped++
		default:
			// A slipped emission can be followed by a shorter gap as the
			// schedule re-anchors; allow one tick short as well.
			if emissions[i]-emissions[i-1] == sigdb.SlowPeriod-sigdb.FastPeriod {
				nominal++
			} else {
				t.Fatalf("gap %v at emission %d", emissions[i]-emissions[i-1], i)
			}
		}
	}
	if slipped == 0 {
		t.Error("no jitter slips observed with jitterProb=0.5")
	}
	if nominal == 0 {
		t.Error("no nominal gaps observed")
	}
}

func TestTxScheduleFastFramesNeverJitter(t *testing.T) {
	db := sigdb.Vehicle()
	rng := rand.New(rand.NewSource(3))
	s, err := NewTxSchedule(db, sigdb.FastPeriod, 1.0, rng)
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	for tick := 0; tick < 500; tick++ {
		now := time.Duration(tick) * sigdb.FastPeriod
		found := false
		for _, id := range s.Due(now) {
			if id == sigdb.FrameRadar {
				found = true
			}
		}
		if !found {
			t.Fatalf("fast frame missing at tick %d despite jitterProb=1", tick)
		}
	}
}

func TestNewTxScheduleValidation(t *testing.T) {
	db := sigdb.Vehicle()
	if _, err := NewTxSchedule(db, 0, 0, nil); err == nil {
		t.Error("zero base accepted")
	}
	if _, err := NewTxSchedule(db, sigdb.FastPeriod, -0.1, nil); err == nil {
		t.Error("negative jitter accepted")
	}
	if _, err := NewTxSchedule(db, sigdb.FastPeriod, 0.5, nil); err == nil {
		t.Error("jitter without rng accepted")
	}
	if _, err := NewTxSchedule(db, 3*time.Millisecond, 0, nil); err == nil {
		t.Error("non-divisible base accepted")
	}
}

func newTestBus(t *testing.T) *Bus {
	t.Helper()
	db := sigdb.Vehicle()
	s, err := NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	return NewBus(db, s)
}

func TestBusLatchesOnTransmit(t *testing.T) {
	b := newTestBus(t)
	if err := b.Set(sigdb.SigVelocity, 31.25); err != nil {
		t.Fatalf("Set: %v", err)
	}
	// Before any Step, receivers still see the boot value.
	v, err := b.Read(sigdb.SigVelocity)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != 0 {
		t.Errorf("pre-transmit Read = %v, want 0", v)
	}
	if err := b.Step(0); err != nil {
		t.Fatalf("Step: %v", err)
	}
	v, _ = b.Read(sigdb.SigVelocity)
	if v != 31.25 {
		t.Errorf("post-transmit Read = %v, want 31.25", v)
	}
}

func TestBusSlowSignalHeldBetweenTransmits(t *testing.T) {
	b := newTestBus(t)
	if err := b.Step(0); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := b.Set(sigdb.SigACCSetSpeed, 25); err != nil {
		t.Fatalf("Set: %v", err)
	}
	// Ticks 1..3: the slow ACCCommand frame is not due; receivers hold 0.
	for tick := 1; tick <= 3; tick++ {
		if err := b.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if v, _ := b.Read(sigdb.SigACCSetSpeed); v != 0 {
			t.Fatalf("tick %d: slow signal leaked early: %v", tick, v)
		}
	}
	// Tick 4: slow frame transmits.
	if err := b.Step(4 * sigdb.FastPeriod); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if v, _ := b.Read(sigdb.SigACCSetSpeed); v != 25 {
		t.Errorf("slow signal after transmit = %v, want 25", v)
	}
}

func TestBusLatchesWirePrecision(t *testing.T) {
	b := newTestBus(t)
	v := 0.1 // not exactly representable in float32
	if err := b.Set(sigdb.SigVelocity, v); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := b.Step(0); err != nil {
		t.Fatalf("Step: %v", err)
	}
	got, _ := b.Read(sigdb.SigVelocity)
	if want := float64(float32(v)); got != want {
		t.Errorf("latched %v, want wire precision %v", got, want)
	}
}

func TestBusPreservesNaNOverWire(t *testing.T) {
	b := newTestBus(t)
	if err := b.Set(sigdb.SigTargetRange, math.NaN()); err != nil {
		t.Fatalf("Set: %v", err)
	}
	if err := b.Step(0); err != nil {
		t.Fatalf("Step: %v", err)
	}
	got, _ := b.Read(sigdb.SigTargetRange)
	if !math.IsNaN(got) {
		t.Errorf("latched %v, want NaN", got)
	}
}

func TestBusUnknownSignal(t *testing.T) {
	b := newTestBus(t)
	if err := b.Set("NoSuchSignal", 1); err == nil {
		t.Error("Set of unknown signal accepted")
	}
	if _, err := b.Read("NoSuchSignal"); err == nil {
		t.Error("Read of unknown signal accepted")
	}
}

func TestBusSlotsMatchNames(t *testing.T) {
	b := newTestBus(t)
	vel, ok := b.Slot(sigdb.SigVelocity)
	if !ok {
		t.Fatal("Slot: Velocity unknown")
	}
	if _, ok := b.Slot("NoSuchSignal"); ok {
		t.Error("Slot resolved an unknown signal")
	}
	b.SetSlot(vel, 12.5)
	if err := b.Step(0); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if got := b.ReadSlot(vel); got != 12.5 {
		t.Errorf("ReadSlot = %v, want 12.5", got)
	}
	if got, _ := b.Read(sigdb.SigVelocity); got != 12.5 {
		t.Errorf("Read after SetSlot = %v, want 12.5", got)
	}
}

func TestBusLogGrowth(t *testing.T) {
	b := newTestBus(t)
	for tick := 0; tick < 8; tick++ {
		if err := b.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	// 8 ticks: 6 fast frames every tick + slow frame at ticks 0 and 4.
	want := 8*6 + 2
	if got := b.Log().Len(); got != want {
		t.Errorf("log has %d frames, want %d", got, want)
	}
}

// TestLogRoundTripQuick property-tests binary log serialization over
// arbitrary frame contents.
func TestLogRoundTripQuick(t *testing.T) {
	f := func(ids []uint32, payload [8]byte) bool {
		var l Log
		for i, id := range ids {
			fr := Frame{Time: time.Duration(i) * time.Millisecond, ID: id, Data: payload}
			if err := l.Append(fr); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if _, err := l.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadLog(&buf)
		if err != nil {
			return false
		}
		if got.Len() != l.Len() {
			return false
		}
		for i := range got.Frames() {
			if got.Frames()[i] != l.Frames()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

package trace

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/sigdb"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSeriesAppendOrdering(t *testing.T) {
	var s Series
	if err := s.Append(ms(10), 1); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := s.Append(ms(10), 2); err != nil {
		t.Fatalf("append equal time: %v", err)
	}
	if err := s.Append(ms(5), 3); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestSeriesAtHold(t *testing.T) {
	var s Series
	_ = s.Append(ms(10), 1)
	_ = s.Append(ms(30), 2)
	tests := []struct {
		at     time.Duration
		want   float64
		wantOK bool
	}{
		{ms(0), 0, false},
		{ms(9), 0, false},
		{ms(10), 1, true},
		{ms(29), 1, true},
		{ms(30), 2, true},
		{ms(1000), 2, true},
	}
	for _, tt := range tests {
		got, ok := s.At(tt.at)
		if ok != tt.wantOK || (ok && got != tt.want) {
			t.Errorf("At(%v) = %v,%v, want %v,%v", tt.at, got, ok, tt.want, tt.wantOK)
		}
	}
}

func TestTraceEnsureAndNames(t *testing.T) {
	tr := New()
	a := tr.Ensure("a")
	b := tr.Ensure("b")
	if tr.Ensure("a") != a {
		t.Error("Ensure returned a different series for existing name")
	}
	_ = b
	got := tr.Names()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Names = %v, want [a b]", got)
	}
	if _, ok := tr.Series("c"); ok {
		t.Error("Series(c) found nonexistent series")
	}
}

func TestTraceDuration(t *testing.T) {
	tr := New()
	_ = tr.Ensure("a").Append(ms(10), 1)
	_ = tr.Ensure("b").Append(ms(50), 1)
	if tr.Duration() != ms(50) {
		t.Errorf("Duration = %v, want 50ms", tr.Duration())
	}
}

func busLog(t *testing.T, ticks int, set func(tick int, b *can.Bus)) *can.Log {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatalf("NewTxSchedule: %v", err)
	}
	b := can.NewBus(db, sched)
	for tick := 0; tick < ticks; tick++ {
		if set != nil {
			set(tick, b)
		}
		if err := b.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	return b.Log()
}

func TestFromCANLog(t *testing.T) {
	log := busLog(t, 8, func(tick int, b *can.Bus) {
		_ = b.Set(sigdb.SigVelocity, float64(tick))
	})
	db := sigdb.Vehicle()
	tr, err := FromCANLog(log, db)
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	vel, ok := tr.Series(sigdb.SigVelocity)
	if !ok {
		t.Fatal("missing Velocity series")
	}
	if len(vel.Samples) != 8 {
		t.Fatalf("Velocity has %d samples, want 8", len(vel.Samples))
	}
	for i, smp := range vel.Samples {
		if smp.V != float64(i) {
			t.Errorf("sample %d = %v, want %v", i, smp.V, float64(i))
		}
	}
	slow, ok := tr.Series(sigdb.SigACCSetSpeed)
	if !ok {
		t.Fatal("missing ACCSetSpeed series")
	}
	if len(slow.Samples) != 2 {
		t.Errorf("slow signal has %d samples over 8 ticks, want 2", len(slow.Samples))
	}
}

func TestFromCANLogIgnoresForeignFrames(t *testing.T) {
	var log can.Log
	_ = log.Append(can.Frame{Time: 0, ID: 0x7FF})
	tr, err := FromCANLog(&log, sigdb.Vehicle())
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	for _, name := range tr.Names() {
		s, _ := tr.Series(name)
		if len(s.Samples) != 0 {
			t.Errorf("foreign frame produced samples for %q", name)
		}
	}
}

func TestAlignHoldAndUpdated(t *testing.T) {
	tr := New()
	s := tr.Ensure("x")
	_ = s.Append(ms(0), 1)
	_ = s.Append(ms(40), 2)
	g, err := Align(tr, ms(10))
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	if g.Steps != 5 {
		t.Fatalf("Steps = %d, want 5", g.Steps)
	}
	vals, _ := g.Values("x")
	want := []float64{1, 1, 1, 1, 2}
	for i := range want {
		if vals[i] != want[i] {
			t.Errorf("step %d value = %v, want %v", i, vals[i], want[i])
		}
	}
	upd, _ := g.Updated("x")
	wantUpd := []bool{true, false, false, false, true}
	for i := range wantUpd {
		if upd[i] != wantUpd[i] {
			t.Errorf("step %d updated = %v, want %v", i, upd[i], wantUpd[i])
		}
	}
}

func TestAlignNaNBeforeFirstSample(t *testing.T) {
	tr := New()
	s := tr.Ensure("x")
	_ = s.Append(ms(20), 5)
	g, err := Align(tr, ms(10))
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	vals, _ := g.Values("x")
	if !math.IsNaN(vals[0]) || !math.IsNaN(vals[1]) {
		t.Errorf("pre-first-sample values = %v, want NaN", vals[:2])
	}
	if vals[2] != 5 {
		t.Errorf("step 2 = %v, want 5", vals[2])
	}
}

func TestAlignRejectsBadPeriod(t *testing.T) {
	if _, err := Align(New(), 0); err == nil {
		t.Fatal("Align with zero period accepted")
	}
}

func TestGridAccessors(t *testing.T) {
	tr := New()
	_ = tr.Ensure("x").Append(0, 1)
	g, err := Align(tr, ms(10))
	if err != nil {
		t.Fatalf("Align: %v", err)
	}
	if !g.Has("x") || g.Has("y") {
		t.Error("Has is wrong")
	}
	if _, ok := g.Values("y"); ok {
		t.Error("Values for unknown signal returned ok")
	}
	if _, ok := g.Updated("y"); ok {
		t.Error("Updated for unknown signal returned ok")
	}
	if g.TimeAt(3) != ms(30) {
		t.Errorf("TimeAt(3) = %v, want 30ms", g.TimeAt(3))
	}
	if got := g.Names(); len(got) != 1 || got[0] != "x" {
		t.Errorf("Names = %v, want [x]", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := New()
	x := tr.Ensure("x")
	_ = x.Append(ms(0), 1.5)
	_ = x.Append(ms(10), math.NaN())
	_ = x.Append(ms(20), math.Inf(1))
	_ = x.Append(ms(30), math.Inf(-1))
	y := tr.Ensure("y")
	_ = y.Append(ms(5), -2000)

	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	gx, ok := got.Series("x")
	if !ok || len(gx.Samples) != 4 {
		t.Fatalf("x round trip = %+v", gx)
	}
	if gx.Samples[0].V != 1.5 {
		t.Errorf("sample 0 = %v", gx.Samples[0].V)
	}
	if !math.IsNaN(gx.Samples[1].V) {
		t.Errorf("sample 1 = %v, want NaN", gx.Samples[1].V)
	}
	if !math.IsInf(gx.Samples[2].V, 1) || !math.IsInf(gx.Samples[3].V, -1) {
		t.Errorf("infinities did not round trip: %v %v", gx.Samples[2].V, gx.Samples[3].V)
	}
	gy, ok := got.Series("y")
	if !ok || len(gy.Samples) != 1 || gy.Samples[0].V != -2000 {
		t.Fatalf("y round trip = %+v", gy)
	}
}

func TestReadCSVErrors(t *testing.T) {
	tests := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"bad header", "a,b,c\n"},
		{"bad time", "time_ns,signal,value\nxx,a,1\n"},
		{"bad value", "time_ns,signal,value\n0,a,zz\n"},
		{"out of order", "time_ns,signal,value\n10,a,1\n0,a,2\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadCSV(bytes.NewBufferString(tt.in)); err == nil {
				t.Errorf("ReadCSV(%q) succeeded, want error", tt.in)
			}
		})
	}
}

// TestCSVRoundTripQuick property-tests that arbitrary float64 values,
// including special values, survive a CSV round trip.
func TestCSVRoundTripQuick(t *testing.T) {
	f := func(vs []float64) bool {
		tr := New()
		s := tr.Ensure("sig")
		for i, v := range vs {
			if err := s.Append(time.Duration(i)*time.Millisecond, v); err != nil {
				return false
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if len(vs) == 0 {
			return len(got.Names()) == 0
		}
		gs, ok := got.Series("sig")
		if !ok || len(gs.Samples) != len(vs) {
			return false
		}
		for i, v := range vs {
			g := gs.Samples[i].V
			if g != v && !(math.IsNaN(g) && math.IsNaN(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestAlignHoldMatchesSeriesAtQuick property-tests that grid alignment
// agrees with the series' own zero-order-hold lookup at every step.
func TestAlignHoldMatchesSeriesAtQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		tr := New()
		s := tr.Ensure("x")
		tt := time.Duration(0)
		for _, r := range raw {
			tt += time.Duration(r%37) * time.Millisecond
			if err := s.Append(tt, float64(r)); err != nil {
				return false
			}
		}
		g, err := Align(tr, 10*time.Millisecond)
		if err != nil {
			return false
		}
		vals, _ := g.Values("x")
		for step := 0; step < g.Steps; step++ {
			want, ok := s.At(g.TimeAt(step))
			got := vals[step]
			if !ok {
				if !math.IsNaN(got) {
					return false
				}
				continue
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFromCANLogAllocatesSeriesOnce(t *testing.T) {
	log := busLog(t, 50, func(tick int, b *can.Bus) {
		_ = b.Set(sigdb.SigVelocity, float64(tick))
	})
	tr, err := FromCANLog(log, sigdb.Vehicle())
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	for _, name := range tr.Names() {
		s, _ := tr.Series(name)
		if cap(s.Samples) != len(s.Samples) {
			t.Errorf("%s: %d samples in capacity %d, want an exact presize", name, len(s.Samples), cap(s.Samples))
		}
	}
}

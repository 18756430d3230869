package sigdb

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestPlanMatchesUnpack differentially checks the compiled decoder
// against the legacy map-based Unpack across every Vehicle frame with
// fuzzed payloads: same bits in, same physical values out.
func TestPlanMatchesUnpack(t *testing.T) {
	db := Vehicle()
	names := db.SignalNames()
	plan, err := db.CompilePlan(names)
	if err != nil {
		t.Fatal(err)
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	rng := rand.New(rand.NewSource(1))
	dst := make([]float64, plan.Width())
	for _, f := range db.Frames() {
		for trial := 0; trial < 200; trial++ {
			var data [8]byte
			rng.Read(data[:])
			want, err := db.Unpack(f.ID, data)
			if err != nil {
				t.Fatalf("frame 0x%X: Unpack: %v", f.ID, err)
			}
			mask, err := plan.UnpackInto(f.ID, data, dst)
			if err != nil {
				t.Fatalf("frame 0x%X: UnpackInto: %v", f.ID, err)
			}
			if want := uint64(1)<<uint(len(f.Signals)) - 1; mask != want {
				t.Fatalf("frame 0x%X: mask = %b, want %b", f.ID, mask, want)
			}
			for name, wv := range want {
				gv := dst[idx[name]]
				if gv != wv && !(math.IsNaN(gv) && math.IsNaN(wv)) {
					t.Fatalf("frame 0x%X signal %s: plan decoded %v, Unpack decoded %v (payload %x)",
						f.ID, name, gv, wv, data)
				}
			}
		}
	}
}

// TestPlanDstAndKnows checks the destination-index view a streaming
// caller uses to flip freshness bits.
func TestPlanDstAndKnows(t *testing.T) {
	db := Vehicle()
	names := db.SignalNames()
	plan, err := db.CompilePlan(names)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Width(); got != len(names) {
		t.Fatalf("Width = %d, want %d", got, len(names))
	}
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	for _, f := range db.Frames() {
		if !plan.Knows(f.ID) {
			t.Fatalf("Knows(0x%X) = false for a database frame", f.ID)
		}
		dst, ok := plan.Dst(f.ID)
		if !ok {
			t.Fatalf("Dst(0x%X) not ok for a database frame", f.ID)
		}
		if len(dst) != len(f.Signals) {
			t.Fatalf("frame 0x%X: %d destinations, want %d", f.ID, len(dst), len(f.Signals))
		}
		for k, s := range f.Signals {
			if dst[k] != idx[s.Name] {
				t.Fatalf("frame 0x%X entry %d: dst %d, want %d (%s)", f.ID, k, dst[k], idx[s.Name], s.Name)
			}
		}
	}
	if plan.Knows(0x7FF) {
		t.Fatal("Knows reports an undeclared frame ID")
	}
	if _, ok := plan.Dst(0x7FF); ok {
		t.Fatal("Dst reports an undeclared frame ID")
	}
}

// TestPlanUnknownFrame pins the sentinel: foreign traffic must be
// testable without allocating an error message per frame.
func TestPlanUnknownFrame(t *testing.T) {
	plan, err := Vehicle().CompilePlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.UnpackInto(0x7FF, [8]byte{}, nil)
	if !errors.Is(err, ErrUnknownFrame) {
		t.Fatalf("UnpackInto(unknown) = %v, want ErrUnknownFrame", err)
	}
}

// TestPlanShortDst checks that an undersized destination vector is
// rejected before anything is written.
func TestPlanShortDst(t *testing.T) {
	db := Vehicle()
	plan, err := db.CompilePlan(db.SignalNames())
	if err != nil {
		t.Fatal(err)
	}
	short := make([]float64, plan.Width()-1)
	if _, err := plan.UnpackInto(FrameVehicleDyn, [8]byte{}, short); err == nil {
		t.Fatal("UnpackInto accepted a destination shorter than the plan width")
	}
}

// TestPlanSubsetOrdering compiles a plan over a strict subset of the
// database: frames still decode, absent signals are skipped and never
// touch the destination vector.
func TestPlanSubsetOrdering(t *testing.T) {
	db := Vehicle()
	order := []string{SigThrotPos, SigVelocity} // deliberately not database order
	plan, err := db.CompilePlan(order)
	if err != nil {
		t.Fatal(err)
	}
	data, err := db.Pack(FrameVehicleDyn, map[string]float64{SigVelocity: 24.5, SigThrotPos: 31.2})
	if err != nil {
		t.Fatal(err)
	}
	sentinel := -12345.0
	dst := []float64{sentinel, sentinel}
	mask, err := plan.UnpackInto(FrameVehicleDyn, data, dst)
	if err != nil {
		t.Fatal(err)
	}
	dsts, _ := plan.Dst(FrameVehicleDyn)
	if len(dsts) != 2 {
		t.Fatalf("subset plan extracts %d signals from VehicleDyn, want 2", len(dsts))
	}
	if mask != 0b11 {
		t.Fatalf("subset mask = %b, want 11", mask)
	}
	if got := dst[1]; math.Abs(got-24.5) > 1e-4 {
		t.Fatalf("Velocity decoded to %v at its ordering slot, want ~24.5", got)
	}
	if got := dst[0]; math.Abs(got-31.2) > 1e-4 {
		t.Fatalf("ThrotPos decoded to %v at its ordering slot, want ~31.2", got)
	}
	// A frame carrying none of the ordered signals still decodes (to
	// nothing) rather than erroring.
	if mask, err := plan.UnpackInto(FrameRadar, [8]byte{}, dst); err != nil || mask != 0 {
		t.Fatalf("radar frame under subset plan: mask %b err %v, want 0 nil", mask, err)
	}
}

// TestCompilePlanRejects pins the compile-time errors.
func TestCompilePlanRejects(t *testing.T) {
	db := Vehicle()
	if _, err := db.CompilePlan([]string{"NoSuchSignal"}); err == nil {
		t.Fatal("CompilePlan accepted an unknown signal name")
	}
	if _, err := db.CompilePlan([]string{SigVelocity, SigVelocity}); err == nil {
		t.Fatal("CompilePlan accepted a duplicate signal name")
	}
}

// TestUnpackIntoAllocFree pins the zero-allocation contract of the hot
// decode path.
func TestUnpackIntoAllocFree(t *testing.T) {
	db := Vehicle()
	plan, err := db.CompilePlan(db.SignalNames())
	if err != nil {
		t.Fatal(err)
	}
	data, err := db.Pack(FrameVehicleDyn, map[string]float64{SigVelocity: 24.5, SigThrotPos: 31.2})
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, plan.Width())
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := plan.UnpackInto(FrameVehicleDyn, data, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("UnpackInto allocates %.1f times per frame, want 0", allocs)
	}
}

// TestFramePlanMatchesPlanCalls checks the resolved-frame codec against
// the per-ID calls it fuses: Latch writes what UnpackInto writes and
// marks exactly the indices Dst lists, and Pack assembles what PackFrom
// does. Lookup resolves every database frame and nothing else.
func TestFramePlanMatchesPlanCalls(t *testing.T) {
	db := Vehicle()
	plan, err := db.CompilePlan(db.SignalNames())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Lookup(0x7FF) != nil {
		t.Fatal("Lookup resolved a frame ID outside the database")
	}
	rng := rand.New(rand.NewSource(2))
	want := make([]float64, plan.Width())
	got := make([]float64, plan.Width())
	fresh := make([]bool, plan.Width())
	for _, f := range db.Frames() {
		fp := plan.Lookup(f.ID)
		if fp == nil {
			t.Fatalf("Lookup(0x%X) = nil for a database frame", f.ID)
		}
		dst, _ := plan.Dst(f.ID)
		for trial := 0; trial < 50; trial++ {
			var data [8]byte
			rng.Read(data[:])
			for i := range fresh {
				fresh[i] = false
			}
			if _, err := plan.UnpackInto(f.ID, data, want); err != nil {
				t.Fatal(err)
			}
			fp.Latch(data, got, fresh)
			for _, di := range dst {
				if !fresh[di] {
					t.Fatalf("frame 0x%X: Latch left index %d stale", f.ID, di)
				}
				if got[di] != want[di] && !(math.IsNaN(got[di]) && math.IsNaN(want[di])) {
					t.Fatalf("frame 0x%X index %d: Latch decoded %v, UnpackInto %v", f.ID, di, got[di], want[di])
				}
				fresh[di] = false
			}
			for i, v := range fresh {
				if v {
					t.Fatalf("frame 0x%X: Latch marked index %d, which Dst does not list", f.ID, i)
				}
			}
			packed, err := plan.PackFrom(f.ID, got)
			if err != nil {
				t.Fatal(err)
			}
			if fp.Pack(got) != packed {
				t.Fatalf("frame 0x%X: Pack differs from PackFrom", f.ID)
			}
		}
	}
}

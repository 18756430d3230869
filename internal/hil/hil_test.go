package hil

import (
	"math"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/fsracc"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/trace"
	"cpsmon/internal/vehicle"
)

// freeRoadBench returns a bench with the ego cruising on an empty road,
// engaged at 25 m/s.
func freeRoadBench(t *testing.T, typeCheck bool) *Bench {
	t.Helper()
	b, err := New(Config{
		TypeChecking: typeCheck,
		Ego:          vehicle.NewEgo(vehicle.DefaultEgoConfig(), 20),
		Driver: DriverFunc(func(time.Duration) DriverCommands {
			return DriverCommands{ACCSetSpeed: 25, SelHeadway: 2}
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return b
}

func TestNewRequiresDriver(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without driver succeeded")
	}
}

func TestBenchDefaults(t *testing.T) {
	b := freeRoadBench(t, true)
	if b.Tick() != sigdb.FastPeriod {
		t.Errorf("Tick = %v, want %v", b.Tick(), sigdb.FastPeriod)
	}
	if b.Now() != 0 {
		t.Errorf("Now = %v, want 0", b.Now())
	}
}

func TestBenchConvergesToSetSpeed(t *testing.T) {
	b := freeRoadBench(t, true)
	if err := b.Run(60*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v := b.Ego().Speed(); math.Abs(v-25) > 0.5 {
		t.Errorf("ego speed after 60s = %v, want ≈25", v)
	}
	if b.Feature().Mode() != fsracc.ModeActive {
		t.Errorf("feature mode = %v, want active", b.Feature().Mode())
	}
}

func TestBenchNeverExceedsSetSpeedOnFlatRoad(t *testing.T) {
	b := freeRoadBench(t, true)
	for i := 0; i < 9000; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if v := b.Ego().Speed(); v > 25.3 {
			t.Fatalf("ego speed %v overshot set speed at t=%v", v, b.Now())
		}
	}
}

func TestBenchLogCarriesOutputs(t *testing.T) {
	b := freeRoadBench(t, true)
	if err := b.Run(5*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	tr, err := trace.FromCANLog(b.Log(), sigdb.Vehicle())
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	enabled, ok := tr.Series(sigdb.SigACCEnabled)
	if !ok || len(enabled.Samples) == 0 {
		t.Fatal("no ACCEnabled samples on the bus")
	}
	// After the first ticks the feature reports enabled.
	if v, ok := enabled.At(time.Second); !ok || v != 1 {
		t.Errorf("ACCEnabled at 1s = %v,%v, want 1,true", v, ok)
	}
	torque, _ := tr.Series(sigdb.SigRequestedTorque)
	if v, ok := torque.At(2 * time.Second); !ok || v <= 0 {
		t.Errorf("RequestedTorque at 2s = %v, want positive (accelerating to set speed)", v)
	}
}

func TestInjectionOverridesFeatureInputOnly(t *testing.T) {
	b := freeRoadBench(t, true)
	if err := b.Run(30*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Inject a low Velocity: the feature believes it is slow and
	// accelerates, but the bus keeps broadcasting the genuine speed.
	if err := b.SetInjection(sigdb.SigVelocity, 5); err != nil {
		t.Fatalf("SetInjection: %v", err)
	}
	if err := b.Run(b.Now()+10*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	busVel, err := b.BusValue(sigdb.SigVelocity)
	if err != nil {
		t.Fatalf("BusValue: %v", err)
	}
	if busVel < 25.5 {
		t.Errorf("bus velocity = %v, want genuine overspeed > 25.5 while feature chases injected 5", busVel)
	}
	b.ClearInjection(sigdb.SigVelocity)
}

func TestInjectionTypeCheckingOnHIL(t *testing.T) {
	b := freeRoadBench(t, true)
	// Floats accept anything, including exceptional values.
	if err := b.SetInjection(sigdb.SigTargetRange, math.NaN()); err != nil {
		t.Errorf("NaN float injection rejected on HIL: %v", err)
	}
	// Booleans accept only 0/1.
	if err := b.SetInjection(sigdb.SigVehicleAhead, 2); err == nil {
		t.Error("bool injection of 2 accepted despite type checking")
	}
	// Enums accept only declared ordinals.
	if err := b.SetInjection(sigdb.SigSelHeadway, 200); err == nil {
		t.Error("out-of-range enum injection accepted despite type checking")
	}
	if err := b.SetInjection(sigdb.SigSelHeadway, 3); err != nil {
		t.Errorf("valid enum injection rejected: %v", err)
	}
}

func TestInjectionWithoutTypeChecking(t *testing.T) {
	b := freeRoadBench(t, false)
	// A real vehicle network checks nothing.
	if err := b.SetInjection(sigdb.SigSelHeadway, 200); err != nil {
		t.Errorf("enum injection rejected without type checking: %v", err)
	}
	if err := b.SetInjection(sigdb.SigVehicleAhead, 7); err != nil {
		t.Errorf("bool injection rejected without type checking: %v", err)
	}
}

func TestInjectionRejectsNonInputs(t *testing.T) {
	b := freeRoadBench(t, false)
	if err := b.SetInjection(sigdb.SigRequestedTorque, 100); err == nil {
		t.Error("injection into an output signal accepted")
	}
	if err := b.SetInjection("NoSuchSignal", 1); err == nil {
		t.Error("injection into unknown signal accepted")
	}
}

func TestClearAllInjections(t *testing.T) {
	b := freeRoadBench(t, true)
	if err := b.SetInjection(sigdb.SigVelocity, 5); err != nil {
		t.Fatalf("SetInjection: %v", err)
	}
	if err := b.SetInjection(sigdb.SigTargetRange, 5); err != nil {
		t.Fatalf("SetInjection: %v", err)
	}
	b.ClearAllInjections()
	if got := b.readInput(b.slots.velocity); got == 5 {
		t.Error("injection still active after ClearAllInjections")
	}
}

func TestDriverBrakeSlowsVehicleInStandby(t *testing.T) {
	braking := false
	b, err := New(Config{
		Ego: vehicle.NewEgo(vehicle.DefaultEgoConfig(), 25),
		Driver: DriverFunc(func(t time.Duration) DriverCommands {
			cmd := DriverCommands{ACCSetSpeed: 25, SelHeadway: 2}
			if braking {
				cmd.BrakePedPres = 15
			}
			return cmd
		}),
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := b.Run(10*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	braking = true
	if err := b.Run(15*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if b.Feature().Mode() != fsracc.ModeStandby {
		t.Errorf("mode = %v, want standby under driver braking", b.Feature().Mode())
	}
	if v := b.Ego().Speed(); v > 10 {
		t.Errorf("ego speed = %v, want slowed by driver braking", v)
	}
}

func TestActuationSanitizesNaNRequests(t *testing.T) {
	b := freeRoadBench(t, true)
	if err := b.Run(20*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// NaN velocity input sends the feature to the brake path with a NaN
	// decel; the brake ECU must not apply it.
	if err := b.SetInjection(sigdb.SigVelocity, math.NaN()); err != nil {
		t.Fatalf("SetInjection: %v", err)
	}
	for i := 0; i < 200; i++ {
		if err := b.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
		if v := b.Ego().Speed(); math.IsNaN(v) {
			t.Fatal("plant speed went NaN: actuation not sanitized")
		}
	}
}

func TestWatchdogServiceACCVisibleOnBus(t *testing.T) {
	b := freeRoadBench(t, true)
	if err := b.Run(20*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := b.SetInjection(sigdb.SigVelocity, math.NaN()); err != nil {
		t.Fatalf("SetInjection: %v", err)
	}
	if err := b.Run(b.Now()+2*time.Second, nil); err != nil {
		t.Fatalf("Run: %v", err)
	}
	svc, err := b.BusValue(sigdb.SigServiceACC)
	if err != nil {
		t.Fatalf("BusValue: %v", err)
	}
	if svc != 1 {
		t.Error("ServiceACC not broadcast after sustained NaN")
	}
	enabled, _ := b.BusValue(sigdb.SigACCEnabled)
	if enabled != 0 {
		t.Error("ACCEnabled still broadcast during fault (would violate Rule #0)")
	}
}

func TestRunOnTickHookErrors(t *testing.T) {
	b := freeRoadBench(t, true)
	wantErr := false
	err := b.Run(time.Second, func(t time.Duration, b *Bench) error {
		if t >= 500*time.Millisecond {
			wantErr = true
			return errHook
		}
		return nil
	})
	if err == nil || !wantErr {
		t.Fatal("hook error not propagated")
	}
}

var errHook = errTest("hook")

type errTest string

func (e errTest) Error() string { return string(e) }

// TestNewRejectsDBMissingBenchSignal builds the vehicle database without
// ServiceACC: the bench cannot publish the feature's outputs onto it,
// so New must refuse it instead of failing later, mid-run.
func TestNewRejectsDBMissingBenchSignal(t *testing.T) {
	db := sigdb.New()
	for _, f := range sigdb.Vehicle().Frames() {
		g := &sigdb.FrameDef{ID: f.ID, Name: f.Name, Period: f.Period}
		for _, s := range f.Signals {
			if s.Name != sigdb.SigServiceACC {
				g.Signals = append(g.Signals, s)
			}
		}
		if err := db.AddFrame(g); err != nil {
			t.Fatalf("AddFrame: %v", err)
		}
	}
	_, err := New(Config{
		DB:     db,
		Driver: DriverFunc(func(time.Duration) DriverCommands { return DriverCommands{} }),
	})
	if err == nil || !strings.Contains(err.Error(), sigdb.SigServiceACC) {
		t.Fatalf("New over a database without %s: err = %v, want one naming it", sigdb.SigServiceACC, err)
	}
}

// TestRunReservesLog checks that Run sizes the capture up front: the
// log's backing array never moves while Run appends to it, including
// on a second Run that continues the first.
func TestRunReservesLog(t *testing.T) {
	b := freeRoadBench(t, true)
	for _, until := range []time.Duration{3 * time.Second, 5 * time.Second} {
		var first *can.Frame
		err := b.Run(until, func(_ time.Duration, b *Bench) error {
			frames := b.Log().Frames()
			if len(frames) == 0 {
				return nil
			}
			if first == nil {
				first = &frames[0]
			} else if &frames[0] != first {
				return errTest("log regrew during Run")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("Run(%v): %v", until, err)
		}
	}
}

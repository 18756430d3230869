// The CheckLog differential test lives in an external test package so
// it can compile the real strict and relaxed rule sets (internal/rules
// imports core, so the in-package tests cannot).
package core_test

import (
	"reflect"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/core"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"
)

// fixtureLog synthesizes a bus capture with a mid-trace fault
// burst so several rules actually violate — a differential test over
// an all-satisfied trace would prove very little.
func fixtureLog(t testing.TB, ticks int) *can.Log {
	t.Helper()
	db := sigdb.Vehicle()
	sched, err := can.NewTxSchedule(db, sigdb.FastPeriod, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	bus := can.NewBus(db, sched)
	for tick := 0; tick < ticks; tick++ {
		_ = bus.Set(sigdb.SigVelocity, 22+3*float64(tick%7))
		_ = bus.Set(sigdb.SigACCSetSpeed, 25)
		_ = bus.Set(sigdb.SigVehicleAhead, 1)
		_ = bus.Set(sigdb.SigTargetRange, float64(45-(tick%30)))
		_ = bus.Set(sigdb.SigSelHeadway, 2)
		if tick >= ticks/3 && tick < ticks/2 {
			_ = bus.Set(sigdb.SigServiceACC, 1)
			_ = bus.Set(sigdb.SigACCEnabled, 1)
			_ = bus.Set(sigdb.SigRequestedTorque, 120)
			_ = bus.Set(sigdb.SigTorqueRequested, 1)
		} else {
			_ = bus.Set(sigdb.SigServiceACC, 0)
			_ = bus.Set(sigdb.SigACCEnabled, 0)
			_ = bus.Set(sigdb.SigRequestedTorque, 0)
			_ = bus.Set(sigdb.SigTorqueRequested, 0)
		}
		if err := bus.Step(time.Duration(tick) * sigdb.FastPeriod); err != nil {
			t.Fatal(err)
		}
	}
	return bus.Log()
}

// TestCheckLogMatchesCheckTrace keeps the offline log path honest
// against an independent step assignment: CheckLog replays frames
// through an online session, while CheckTrace decodes the log into a
// trace and assigns samples to steps with trace.Align. For the strict
// and the relaxed rule sets the two reports must be equal in full:
// steps, violations, classes, suppressed and activation counts.
func TestCheckLogMatchesCheckTrace(t *testing.T) {
	db := sigdb.Vehicle()
	log := fixtureLog(t, 2000)
	tr, err := trace.FromCANLog(log, db)
	if err != nil {
		t.Fatalf("FromCANLog: %v", err)
	}
	for _, spec := range []struct {
		name  string
		rules func() (*speclang.RuleSet, error)
	}{
		{"strict", rules.Strict},
		{"relaxed", rules.Relaxed},
	} {
		t.Run(spec.name, func(t *testing.T) {
			rs, err := spec.rules()
			if err != nil {
				t.Fatal(err)
			}
			mon, err := core.New(core.Config{Rules: rs, Triage: rules.DefaultTriage()})
			if err != nil {
				t.Fatal(err)
			}
			want, err := mon.CheckTrace(tr)
			if err != nil {
				t.Fatalf("CheckTrace: %v", err)
			}
			if !want.AnyViolated() {
				t.Fatal("fixture produced no violations; the comparison would be vacuous")
			}
			got, err := mon.CheckLog(log, db)
			if err != nil {
				t.Fatalf("CheckLog: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("CheckLog diverges from CheckTrace(FromCANLog(log))\nCheckLog:   %+v\nCheckTrace: %+v", got, want)
			}
		})
	}
}

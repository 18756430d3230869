package speclang

import (
	"testing"
	"time"
)

func TestActivationImplicationAntecedent(t *testing.T) {
	rs := compileOne(t, `spec R { assert b -> x <= 0 }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 0, 1, 1, 0, 0).
		add("x", 0, 0, 0, 0, 0, 0)
	res := evalOne(t, rs, src)
	if res.ActivationSteps != 2 {
		t.Errorf("activation = %d, want 2", res.ActivationSteps)
	}
	if res.Vacuous() {
		t.Error("exercised rule reported vacuous")
	}
	if got := res.ActivationRatio(); got != 2.0/6.0 {
		t.Errorf("ratio = %v", got)
	}
}

func TestVacuousSatisfaction(t *testing.T) {
	rs := compileOne(t, `spec R { assert b -> x <= 0 }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 0, 0, 0).
		add("x", 9, 9, 9, 9) // would violate, but the antecedent never fires
	res := evalOne(t, rs, src)
	if res.Violated() {
		t.Fatal("violated despite false antecedent")
	}
	if !res.Vacuous() {
		t.Error("never-exercised rule not reported vacuous")
	}
}

func TestViolatedRuleNeverVacuous(t *testing.T) {
	rs := compileOne(t, `spec R { assert b -> x <= 0 }`, "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("b", 0, 1).
		add("x", 9, 9)
	res := evalOne(t, rs, src)
	if !res.Violated() || res.Vacuous() {
		t.Errorf("violated=%v vacuous=%v", res.Violated(), res.Vacuous())
	}
}

func TestActivationNonImplicationAssert(t *testing.T) {
	// A bare assert exercises every step: it claims something
	// unconditionally.
	rs := compileOne(t, `spec R { assert x <= 10 }`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 1, 2)
	res := evalOne(t, rs, src)
	if res.ActivationSteps != 3 {
		t.Errorf("activation = %d, want 3", res.ActivationSteps)
	}
}

func TestActivationMixedAsserts(t *testing.T) {
	// Activation is the union over asserts.
	rs := compileOne(t, `spec R {
  assert a -> x <= 10
  assert b -> x <= 10
}`, "a", "b", "x")
	src := newMemSource(10*time.Millisecond).
		add("a", 1, 0, 0, 0).
		add("b", 0, 0, 1, 0).
		add("x", 0, 0, 0, 0)
	res := evalOne(t, rs, src)
	if res.ActivationSteps != 2 {
		t.Errorf("activation = %d, want 2", res.ActivationSteps)
	}
}

func TestActivationMonitorOutsideInitialState(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state A {
    when x > 0 => B
  }
  state B {
    when x <= 0 => A
  }
}`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 1, 1, 0, 0, 1)
	res := evalOne(t, rs, src)
	// A step is active when the machine is outside its initial state
	// before or after the step's transition: entering B at step 1,
	// dwelling at step 2, exiting at step 3, and re-entering at step 5.
	if res.ActivationSteps != 4 {
		t.Errorf("activation = %d, want 4", res.ActivationSteps)
	}
	if res.Vacuous() {
		t.Error("entered monitor reported vacuous")
	}
}

func TestMonitorNeverLeavingInitialIsVacuous(t *testing.T) {
	rs := compileOne(t, `
monitor M {
  initial state A {
    when x > 100 => violate "boom"
  }
}`, "x")
	src := newMemSource(10*time.Millisecond).add("x", 0, 0, 0)
	res := evalOne(t, rs, src)
	if !res.Vacuous() {
		t.Error("monitor that never left its initial state not vacuous")
	}
}

func TestRuleHorizon(t *testing.T) {
	period := 10 * time.Millisecond
	tests := []struct {
		name string
		src  string
		want time.Duration
	}{
		{"propositional", `spec R { assert x > 0 }`, 0},
		{"past only", `spec R { assert once[0:500ms](x > 0) }`, 0},
		{"single future", `spec R { assert eventually[0:400ms](x > 0) }`, 400 * time.Millisecond},
		{"nested future", `spec R { assert always[0:100ms](eventually[0:50ms](x > 0)) }`, 150 * time.Millisecond},
		{"future inside past", `spec R { assert once[0:1s](eventually[0:30ms](x > 0)) }`, 30 * time.Millisecond},
		{"via let", `spec R { let e = eventually[0:200ms](x > 0) assert e -> x > 0 }`, 200 * time.Millisecond},
		{"severity counts", `spec R { severity cond(eventually[0:60ms](x > 0), 1, 0) assert x > 0 }`, 60 * time.Millisecond},
		{"warmup trigger counts", `spec R { warmup 1s on eventually[0:200ms](x > 5) assert x > 0 }`, 200 * time.Millisecond},
		{"monitor guard", `monitor M {
			initial state A { when always[0:250ms](x > 0) => violate }
		}`, 250 * time.Millisecond},
		{"monitor after only", `monitor M {
			initial state A { after 5s => violate }
		}`, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			rs := compileOne(t, tt.src, "x")
			r := rs.Rules()[0]
			if got := r.Horizon(period); got != tt.want {
				t.Errorf("Horizon = %v, want %v", got, tt.want)
			}
		})
	}
}

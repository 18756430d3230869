// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus the ablation experiments and the monitor engine's
// throughput. One benchmark per artifact:
//
//	BenchmarkTableI               — Table I (fault-injection results)
//	BenchmarkFig1SignalCodec      — Figure 1 (the I/O signal contract, as codec throughput)
//	BenchmarkRealVehicleAnalysis  — Section IV.A (real-vehicle log analysis)
//	BenchmarkAblation*            — Sections V.A, V.C.1, V.C.2, V.C.3
//	BenchmarkMonitor*             — engine micro-benchmarks
package cpsmon_test

import (
	"sync"
	"testing"
	"time"

	"cpsmon/internal/campaign"
	"cpsmon/internal/can"
	"cpsmon/internal/hil"
	"cpsmon/internal/obs"
	"cpsmon/internal/rules"
	"cpsmon/internal/scenario"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
	"cpsmon/internal/trace"

	"cpsmon/internal/core"
)

// BenchmarkTableI regenerates the paper's Table I: the full robustness
// campaign (32 tests, three fault classes, the paper's 20-second holds)
// plus monitoring of every captured trace. One iteration is one
// complete table.
func BenchmarkTableI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		table, err := campaign.RunTableI(campaign.DefaultTableIConfig(42))
		if err != nil {
			b.Fatal(err)
		}
		if got := table.RulesViolatedAnywhere(); got != 6 {
			b.Fatalf("rules violated = %d, want 6 (paper: all except Rule #0)", got)
		}
	}
}

// BenchmarkFig1SignalCodec measures decode throughput of the Figure 1
// signal set over its broadcast frames — the monitor's entire wire→
// physical path, through the compiled decode plan into a reused value
// vector. Steady state is allocation-free.
func BenchmarkFig1SignalCodec(b *testing.B) {
	db := sigdb.Vehicle()
	values := map[string]float64{
		sigdb.SigVelocity:     24.5,
		sigdb.SigThrotPos:     31.2,
		sigdb.SigTargetRange:  38.7,
		sigdb.SigTargetRelVel: -1.4,
	}
	plan, err := db.CompilePlan(db.SignalNames())
	if err != nil {
		b.Fatal(err)
	}
	type wireFrame struct {
		id   uint32
		data [8]byte
	}
	var frames []wireFrame
	for _, id := range []uint32{sigdb.FrameVehicleDyn, sigdb.FrameRadar} {
		data, err := db.Pack(id, values)
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, wireFrame{id: id, data: data})
	}
	dst := make([]float64, plan.Width())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			if _, err := plan.UnpackInto(f.id, f.data, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRealVehicleAnalysis reproduces the Section IV.A pipeline:
// one 10-minute prototype-vehicle drive cycle generated, captured, and
// checked with both the strict and relaxed rule sets.
func BenchmarkRealVehicleAnalysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := campaign.RunVehicleLogs(2024, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"Rule0", "Rule1", "Rule5", "Rule6"} {
			if r, ok := a.Rule(name); !ok || r.StrictVerdict != core.Satisfied {
				b.Fatalf("%s not satisfied on the drive cycle", name)
			}
		}
	}
}

// BenchmarkAblationMultiRate regenerates the Section V.C.1 experiment.
func BenchmarkAblationMultiRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := campaign.RunMultiRateAblation(7)
		if err != nil {
			b.Fatal(err)
		}
		if r.AwareVerdict != core.Violated || r.NaiveVerdict != core.Satisfied {
			b.Fatalf("multirate trap not reproduced: %+v", r)
		}
	}
}

// BenchmarkAblationWarmup regenerates the Section V.C.2 experiment.
func BenchmarkAblationWarmup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := campaign.RunWarmupAblation(7)
		if err != nil {
			b.Fatal(err)
		}
		if r.WithoutWarmup == 0 || r.WithWarmup != 0 {
			b.Fatalf("warmup ablation not reproduced: %+v", r)
		}
	}
}

// BenchmarkAblationTypeCheck regenerates the Section V.C.3 experiment.
func BenchmarkAblationTypeCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := campaign.RunTypeCheckAblation(7)
		if err != nil {
			b.Fatal(err)
		}
		if !r.HILRejected || r.VehicleViolations == 0 {
			b.Fatalf("typecheck ablation not reproduced: %+v", r)
		}
	}
}

// BenchmarkAblationLatency regenerates the online decision-latency
// characterization (the runtime-monitoring question the paper defers).
func BenchmarkAblationLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := campaign.RunLatencyAblation(7)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Stats) == 0 {
			b.Fatal("no latency stats")
		}
	}
}

// BenchmarkAblationIntent regenerates the Section V.A threshold sweep.
func BenchmarkAblationIntent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := campaign.RunIntentAblation(7)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// benchFixture holds the 10-minute follow capture shared by the engine
// micro-benchmarks. Generating it costs seconds, so it is built once
// per process rather than once per benchmark.
var benchFixture struct {
	once sync.Once
	log  *can.Log
	tr   *trace.Trace
	err  error
}

func benchCapture() (*can.Log, *trace.Trace, error) {
	f := &benchFixture
	f.once.Do(func() {
		bench, err := hil.New(scenario.Follow(12, 10*time.Minute))
		if err != nil {
			f.err = err
			return
		}
		if err := bench.Run(10*time.Minute, nil); err != nil {
			f.err = err
			return
		}
		f.log = bench.Log()
		f.tr, f.err = trace.FromCANLog(f.log, sigdb.Vehicle())
	})
	return f.log, f.tr, f.err
}

// benchTrace returns the shared 10-minute follow trace.
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	_, tr, err := benchCapture()
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchLog returns the shared 10-minute follow frame log.
func benchLog(b *testing.B) *can.Log {
	b.Helper()
	log, _, err := benchCapture()
	if err != nil {
		b.Fatal(err)
	}
	return log
}

// BenchmarkMonitorCheckTrace measures the offline oracle over ten
// minutes of bus traffic: all seven rules, triage included. The paper's
// real-time question — can this keep up with the bus? — reads directly
// off this number (10 minutes of traffic per iteration).
func BenchmarkMonitorCheckTrace(b *testing.B) {
	tr := benchTrace(b)
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.CheckTrace(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorCheckLog measures the offline oracle from the frame
// log itself over the same ten minutes of traffic: CheckLog replays the
// frames through an online session's decode plan and stream checker,
// with no trace or grid in between. It reports ns/frame, comparable
// with BenchmarkMonitorOnlineInstrumented.
func BenchmarkMonitorCheckLog(b *testing.B) {
	log := benchLog(b)
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		b.Fatal(err)
	}
	db := sigdb.Vehicle()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mon.CheckLog(log, db); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*log.Len()), "ns/frame")
}

// BenchmarkMonitorOnline measures the streaming monitor over the same
// ten minutes of traffic, frame by frame — the runtime-deployment path.
func BenchmarkMonitorOnline(b *testing.B) {
	log := benchLog(b)
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		om, err := mon.Online(sigdb.Vehicle())
		if err != nil {
			b.Fatal(err)
		}
		for _, f := range log.Frames() {
			if _, err := om.PushFrame(f); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := om.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMonitorOnlineInstrumented measures the fleet's streaming
// path over the same ten minutes of traffic: frames pushed through
// PushFrames in 100 ms runs, as a session hands over wire batches, with
// and without monitor metrics attached. It reports ns/frame, so the two
// sub-benchmarks read off the cost of production telemetry directly.
func BenchmarkMonitorOnlineInstrumented(b *testing.B) {
	frames := benchLog(b).Frames()
	var runs [][]can.Frame
	for start := 0; start < len(frames); {
		end := start
		for end < len(frames) && frames[end].Time < frames[start].Time+100*time.Millisecond {
			end++
		}
		runs = append(runs, frames[start:end])
		start = end
	}
	mon, err := rules.NewStrictMonitor()
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name    string
		metrics bool
	}{{"metrics=off", false}, {"metrics=on", true}} {
		b.Run(bc.name, func(b *testing.B) {
			var met *core.Metrics
			if bc.metrics {
				met = core.NewMetrics(obs.NewRegistry(), "strict", mon.RuleNames())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				om, err := mon.Online(sigdb.Vehicle())
				if err != nil {
					b.Fatal(err)
				}
				om.Instrument(met)
				for _, run := range runs {
					if _, _, err := om.PushFrames(run); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := om.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
		})
	}
}

// BenchmarkStreamStep isolates the stream checker: the strict rule set
// run over the ten-minute trace aligned onto the evaluation grid, with
// no frame decoding or latching. It reports ns/step. The push
// sub-benchmark drives the checker as offline checks do, Push over the
// trace then Finish, so steps run in full blocks; rows=1 calls Step per
// row, the one-step block of frame-by-frame online pushes.
func BenchmarkStreamStep(b *testing.B) {
	grid, err := trace.Align(benchTrace(b), sigdb.FastPeriod)
	if err != nil {
		b.Fatal(err)
	}
	rs, err := rules.Strict()
	if err != nil {
		b.Fatal(err)
	}
	names := grid.Names()
	vals := make([][]float64, grid.NumSteps())
	upd := make([][]bool, grid.NumSteps())
	for k := range vals {
		vals[k] = make([]float64, len(names))
		upd[k] = make([]bool, len(names))
	}
	for i, name := range names {
		v, _ := grid.Values(name)
		u, _ := grid.Updated(name)
		for k := range vals {
			vals[k][i], upd[k][i] = v[k], u[k]
		}
	}
	for _, mode := range []struct {
		name string
		push func(*speclang.StreamChecker, []float64, []bool) ([]speclang.Event, error)
	}{
		{"push", (*speclang.StreamChecker).Push},
		{"rows=1", (*speclang.StreamChecker).Step},
	} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc, err := rs.NewStreamChecker(names, grid.Period, speclang.EvalOptions{})
				if err != nil {
					b.Fatal(err)
				}
				for k := range vals {
					if _, err := mode.push(sc, vals[k], upd[k]); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sc.Finish(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/step")
		})
	}
}

// BenchmarkMonitorAlign isolates the grid-alignment stage.
func BenchmarkMonitorAlign(b *testing.B) {
	tr := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Align(tr, sigdb.FastPeriod); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecCompile measures parsing and compiling the full strict
// rule set.
func BenchmarkSpecCompile(b *testing.B) {
	signals := sigdb.Vehicle().SignalNames()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := speclang.Parse(rules.StrictSource)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := speclang.Compile(f, signals); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHILStep measures the co-simulation step rate (plant + bus +
// feature + actuation per tick).
func BenchmarkHILStep(b *testing.B) {
	bench, err := hil.New(scenario.Follow(12, time.Duration(b.N+1)*sigdb.FastPeriod))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bench.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

package fleet

// Flight-recorder integration: where the fleet server feeds the
// sampled latency tracer (internal/flight) and the detection-latency
// SLO. The wiring keeps the PR3/PR8 pinned hot-path costs intact:
//
//   - Every batch pays one atomic increment (the sampling decision),
//     one histogram observation (the per-vehicle e2e latency) and one
//     SLO bucket update — all lock-free and allocation-free.
//   - Only a sampled batch arms core's stage timing and records spans.
//     Stage timing times the batch's one PushFrames call on the
//     executor every call runs (see core/stagetiming.go): two clock
//     reads for the call and one per rule per block, never one per
//     frame. eval is the rules' block time; decode is the rest of
//     apply — frame lookup and latch, step bookkeeping and event
//     conversion. Span recording is allocation-free ring writes.
//   - Strings are interned into flight refs once per session attach
//     and once per spec compile, never on the batch path.

import (
	"time"

	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
)

// setupFlight wires a session into the server's flight recorder: the
// vehicle identity is interned and the per-vehicle end-to-end latency
// histogram registered. Called once per session from handleHello and
// the crash-recovery restorer; a no-op without a recorder.
func (sess *session) setupFlight() {
	flt := sess.srv.cfg.Flight
	if flt == nil {
		return
	}
	sess.fveh = flt.Intern(sess.vehicle)
	sess.e2e = sess.srv.reg.Histogram("cpsmon_fleet_e2e_latency_seconds",
		"End-to-end frame-batch latency from queue entry to events emitted, per vehicle.",
		obs.DefaultLatencyBuckets(), obs.Label{Name: "vehicle", Value: sess.vehicle})
}

// observeE2E feeds one batch's end-to-end latency to the per-vehicle
// histogram and the fleet SLO. Runs on every batch: both sinks are
// lock-free, allocation-free atomics.
func (sess *session) observeE2E(e2e time.Duration) {
	if sess.e2e != nil {
		sess.e2e.Observe(e2e.Seconds())
	}
	sess.srv.cfg.SLO.Observe(e2e)
}

// recordFlight publishes a sampled batch's spans and exemplar: queue
// wait (ingest), the decode/eval split core's stage timing attributed,
// per-rule eval spans, and the emit stage (event serialization through
// the write buffer). tApply is when the worker dequeued the batch and
// began applying; tEmit is when application finished and emission
// began.
func (sess *session) recordFlight(it item, tApply, tEmit time.Time, e2e time.Duration) {
	flt := sess.srv.cfg.Flight
	decode, eval, perRule := sess.om.EndStageTiming()
	now := time.Now()
	ingest := tApply.Sub(it.enq)
	emit := now.Sub(tEmit)

	flt.Record(sess.id, sess.fveh, flight.StageIngest, 0, it.seq, it.enq, ingest)
	flt.Record(sess.id, sess.fveh, flight.StageDecode, 0, it.seq, tApply, time.Duration(decode))
	flt.Record(sess.id, sess.fveh, flight.StageEval, 0, it.seq, tApply, time.Duration(eval))
	for i, n := range perRule {
		if n > 0 {
			flt.Record(sess.id, sess.fveh, flight.StageEval, sess.entry.frules[i], it.seq, tApply, time.Duration(n))
		}
	}
	flt.Record(sess.id, sess.fveh, flight.StageEmit, 0, it.seq, tEmit, emit)

	var stages [flight.NumStages]int64
	stages[flight.StageIngest] = int64(ingest)
	stages[flight.StageDecode] = decode
	stages[flight.StageEval] = eval
	stages[flight.StageEmit] = int64(emit)
	flt.Exemplar(sess.id, sess.fveh, it.seq, it.enq, e2e, stages)
}

// recordLedgerSpan publishes one durable watermark sync (archive
// barrier + fsync'd ledger append) as a ledger-stage span. Syncs are
// group-committed — a handful per second per session — so every one is
// recorded: fsync stalls are exactly what the flight recorder exists
// to surface.
func (sess *session) recordLedgerSpan(t0 time.Time) {
	if flt := sess.srv.cfg.Flight; flt != nil {
		flt.Record(sess.id, sess.fveh, flight.StageLedger, 0, sess.lastApplied, t0, time.Since(t0))
	}
}

// registerFlightMetrics exposes the recorder's own accounting and the
// SLO burn gauges on the server registry.
func registerFlightMetrics(reg *obs.Registry, flt *flight.Recorder, slo *flight.SLO) {
	if flt != nil {
		reg.GaugeFunc("cpsmon_fleet_flight_spans_recorded",
			"Spans published into the flight-recorder ring.",
			func() float64 { r, _, _ := flt.Stats(); return float64(r) })
		reg.GaugeFunc("cpsmon_fleet_flight_spans_dropped",
			"Spans lost to flight-ring slot-claim races.",
			func() float64 { _, d, _ := flt.Stats(); return float64(d) })
		reg.GaugeFunc("cpsmon_fleet_flight_batches_sampled",
			"Batches that won the flight-recorder sampling decision.",
			func() float64 { _, _, s := flt.Stats(); return float64(s) })
	}
	if slo != nil {
		reg.GaugeFunc("cpsmon_fleet_slo_burn_rate",
			"Detection-latency SLO burn rate over the rolling window (1.0 spends the error budget exactly as fast as the objective allows).",
			slo.Burn)
		reg.GaugeFunc("cpsmon_fleet_slo_target_seconds",
			"Detection-latency SLO target: batches at or under this end-to-end latency are good.",
			func() float64 { return slo.Target().Seconds() })
		reg.GaugeFunc("cpsmon_fleet_slo_objective",
			"Fraction of batches that must meet the SLO target.",
			slo.Objective)
	}
}

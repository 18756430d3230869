package main

import (
	"context"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"cpsmon/internal/can"
	"cpsmon/internal/fleet"
	"cpsmon/internal/flight"
	"cpsmon/internal/obs"
	"cpsmon/internal/rules"
	"cpsmon/internal/sigdb"
	"cpsmon/internal/speclang"
)

// liveDaemon spins up a real fleet server with a flight recorder and
// SLO, streams one capture through it, and serves the admin surface —
// everything -top talks to, minus the process boundary.
func liveDaemon(t *testing.T) (target string) {
	t.Helper()
	reg := obs.NewRegistry()
	flt := flight.New(flight.Config{SampleEvery: 1})
	slo := flight.NewSLO(5*time.Second, 0.99, time.Minute)
	srv, err := fleet.NewServer(fleet.Config{
		DB: sigdb.Vehicle(),
		Resolve: func(string) (*speclang.RuleSet, error) {
			return rules.Strict()
		},
		Triage:  rules.DefaultTriage(),
		Metrics: reg,
		Flight:  flt,
		SLO:     slo,
	})
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	path := writeTestLog(t)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	log, err := can.ReadLog(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	c, err := fleet.DialOptions(srv.Addr().String(), fleet.Options{Vehicle: "veh-top", Spec: "strict", Flight: flt})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Replay(log, 0); err != nil {
		t.Fatalf("replay: %v", err)
	}

	admin := httptest.NewServer(obs.NewAdmin(obs.AdminConfig{
		Registry: reg,
		Health: func() obs.Health {
			h := obs.Health{SLOBurn: slo.Burn(), SLOTargetSeconds: slo.Target().Seconds()}
			if slo.Degraded() {
				h.State = "degraded"
			}
			return h
		},
		Flight: func() any { return flt.Snapshot() },
	}))
	t.Cleanup(admin.Close)
	return strings.TrimPrefix(admin.URL, "http://")
}

// TestRunTopRendersOneFrame is the -top CLI test: a single frame from
// a live daemon must carry the health state, fleet totals, SLO burn,
// the stage breakdown and the per-vehicle quantile table.
func TestRunTopRendersOneFrame(t *testing.T) {
	target := liveDaemon(t)
	var sb strings.Builder
	if err := runTop(target, 0, &sb); err != nil {
		t.Fatalf("runTop: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"monitord " + target,
		"ok",            // healthz state
		"sessions",      // fleet block
		"frames",        //
		"burn 0.00",     // generous SLO target → zero burn
		"target 5s",     //
		"objective 99%", //
		"flight",        // recorder stats line
		"STAGE",         // stage breakdown table
		"ingest",        //
		"decode",        //
		"eval",          //
		"emit",          //
		"deliver",       // client-side span, same recorder
		"VEHICLE",       // per-vehicle quantile table
		"veh-top",       //
		"E2E P50",       //
	} {
		if !strings.Contains(out, want) {
			t.Errorf("-top frame missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\x1b[") {
		t.Errorf("single-frame mode must not emit terminal control sequences:\n%q", out)
	}
	// One frame means no rate deltas yet — those need two polls.
	if strings.Contains(out, "/s)") {
		t.Errorf("first frame rendered a rate without a baseline:\n%s", out)
	}
}

// TestRunTopUnreachable pins the failure mode: a dead endpoint is an
// error, not an empty frame.
func TestRunTopUnreachable(t *testing.T) {
	var sb strings.Builder
	if err := runTop("127.0.0.1:1", 0, &sb); err == nil {
		t.Error("no error for a dead admin endpoint")
	}
	if sb.Len() != 0 {
		t.Errorf("failed -top still printed output:\n%s", sb.String())
	}
}

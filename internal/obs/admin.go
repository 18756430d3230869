package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Health is the structured /healthz body. State is one of "ok",
// "draining" or "degraded"; the remaining fields carry the operational
// detail a fleet dashboard wants without a full metrics scrape: how
// hard the detection-latency SLO budget is burning, and the spec
// rollout phase.
type Health struct {
	State            string  `json:"state"`
	SLOBurn          float64 `json:"slo_burn"`
	SLOTargetSeconds float64 `json:"slo_target_seconds,omitempty"`
	// Rollout is the spec rollout phase ("idle", "shadowing", ...) when
	// a spec registry is configured; SpecEpoch the active spec epoch.
	Rollout   string `json:"rollout,omitempty"`
	SpecEpoch uint64 `json:"spec_epoch,omitempty"`
}

// AdminConfig wires the admin surface. obs stays standard-library-only
// (arch-pinned), so the flight recorder and SLO tracker arrive as
// closures rather than imports: Health supplies the /healthz body and
// Flight the /debug/flight snapshot (any JSON-marshalable value).
type AdminConfig struct {
	Registry *Registry
	// Ready gates the /healthz status code: 200 while true, 503 once
	// it flips (drain-aware readiness: load balancers stop routing
	// before the listener actually closes). Nil means always ready.
	Ready func() bool
	// Health supplies the structured /healthz body. Nil derives a
	// minimal body ("ok"/"draining") from Ready alone. When Ready is
	// false the reported state is forced to "draining" regardless of
	// what Health returns, so the body never contradicts the 503.
	Health func() Health
	// Flight supplies the /debug/flight snapshot. Nil leaves the
	// route responding 404.
	Flight func() any
	// Spec, when non-nil, is mounted at /spec/ — the daemon's spec
	// rollout surface (push, status, promote, rollback). It arrives as
	// a handler rather than an import for the same reason Flight is a
	// closure: obs stays standard-library-only.
	Spec http.Handler
}

// NewAdminHandler builds the monitord admin surface with the legacy
// two-argument signature; see NewAdmin for the full configuration.
func NewAdminHandler(reg *Registry, ready func() bool) http.Handler {
	return NewAdmin(AdminConfig{Registry: reg, Ready: ready})
}

// NewAdmin builds the monitord admin surface:
//
//   - /metrics        — the registry in Prometheus text format
//   - /healthz        — structured JSON health (see Health); 200 while
//     ready, 503 once draining. A degraded SLO keeps the 200 so load
//     balancers do not amplify a latency problem into an outage.
//   - /debug/flight   — JSON snapshot of the flight-recorder ring and
//     slowest exemplar traces (404 when no recorder is wired)
//   - /debug/pprof/…  — the standard runtime profiles
//
// The handler carries live profiling endpoints and operational
// detail, so it must only ever be bound to a loopback or otherwise
// access-controlled address; it performs no authentication itself.
func NewAdmin(cfg AdminConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cfg.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		ready := cfg.Ready == nil || cfg.Ready()
		var h Health
		if cfg.Health != nil {
			h = cfg.Health()
		}
		if h.State == "" {
			h.State = "ok"
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if !ready {
			h.State = "draining"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		enc := json.NewEncoder(w)
		enc.Encode(h)
	})
	if cfg.Flight != nil {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(cfg.Flight())
		})
	}
	if cfg.Spec != nil {
		mux.Handle("/spec/", cfg.Spec)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

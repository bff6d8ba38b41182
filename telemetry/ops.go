package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"
)

// StoreHealth reports the record store's recovery outcome — the facts
// previously only printed to stdout at startup, now queryable so a
// soak harness or operator can assert recovery without scraping logs.
type StoreHealth struct {
	Path string `json:"path"`
	// State is "created" for a fresh store or "recovered" when an
	// existing file was reopened (possibly truncating a torn tail).
	State           string `json:"state"`
	EpochsRecovered int    `json:"epochs_recovered"`
	TornBytes       int64  `json:"torn_bytes"`
}

// CheckpointHealth reports the detector checkpoint restore outcome.
type CheckpointHealth struct {
	Path string `json:"path"`
	// State is "restored" when a checkpoint was loaded at boot,
	// "cold" when none was usable, or "disabled" when checkpointing
	// is off.
	State        string `json:"state"`
	Epochs       uint64 `json:"epochs"`
	ForecastKeys int    `json:"forecast_keys"`
	Error        string `json:"error,omitempty"`
}

// VantageHealth names one vantage of a multi-vantage daemon.
type VantageHealth struct {
	Name string `json:"name"`
}

// Health is the /healthz response body: a structured snapshot of the
// process, replacing ad-hoc startup printouts as the source of truth
// for liveness tooling.
type Health struct {
	// Status is "ok" or "degraded" (a component reported an error but
	// the process is still serving).
	Status        string            `json:"status"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Epochs        uint64            `json:"epochs"`
	LastError     string            `json:"last_error,omitempty"`
	Store         *StoreHealth      `json:"store,omitempty"`
	Checkpoint    *CheckpointHealth `json:"checkpoint,omitempty"`
	Vantages      []VantageHealth   `json:"vantages,omitempty"`
}

// Ops is the shared operational HTTP surface. Both daemons mount it on
// their existing query listener so one port serves data and ops.
type Ops struct {
	Registry *Registry
	// Health builds the current /healthz snapshot. Called per request;
	// must be safe for concurrent use.
	Health func() Health
	// Debug additionally mounts net/http/pprof under /debug/pprof/.
	// Off by default: profiling endpoints can stall the process and do
	// not belong on an unauthenticated production port.
	Debug bool
}

// Register mounts /metrics, /healthz and (when Debug) /debug/pprof/*
// on mux.
func (o Ops) Register(mux *http.ServeMux) {
	if o.Registry != nil {
		mux.HandleFunc("/metrics", o.serveMetrics)
	}
	if o.Health != nil {
		mux.HandleFunc("/healthz", o.serveHealth)
	}
	if o.Debug {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
}

// serveMetrics renders Prometheus text by default; `?format=json` or
// an Accept header preferring application/json selects the JSON view.
func (o Ops) serveMetrics(w http.ResponseWriter, r *http.Request) {
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.HasPrefix(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json")
		_ = o.Registry.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = o.Registry.WritePrometheus(w)
}

func (o Ops) serveHealth(w http.ResponseWriter, r *http.Request) {
	h := o.Health()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(h)
}

// Uptime converts a start time into the seconds-precision float the
// Health snapshot carries.
func Uptime(start time.Time) float64 {
	return time.Since(start).Seconds()
}

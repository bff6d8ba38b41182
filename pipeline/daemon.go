package pipeline

import (
	"context"
	"flag"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/detect"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
)

// DetectFlags registers the detection thresholds both daemons share
// (-fanout -fanin -changedelta -forecast) on fs and returns a function
// building the detect.Config they describe; call it after fs.Parse.
func DetectFlags(fs *flag.FlagSet) func() detect.Config {
	fanout := fs.Int("fanout", 128, "superspreader distinct-destination threshold (with -detect)")
	fanin := fs.Int("fanin", 128, "victim fan-in distinct-source threshold (with -detect)")
	minDelta := fs.Uint64("changedelta", 1024, "heavy-change per-flow delta threshold (with -detect)")
	forecast := fs.Float64("forecast", 1024, "forecast CUSUM drift threshold in packets (with -detect)")
	return func() detect.Config {
		return detect.Config{
			FanoutThreshold:   *fanout,
			FanInThreshold:    *fanin,
			ChangeMinDelta:    uint32(*minDelta),
			ForecastThreshold: *forecast,
		}
	}
}

// CompactionLogger returns a TieredOptions.OnCompact callback that logs
// each compaction pass: a failure as a degraded line (and to onErr, when
// set), a pass that moved data as a compaction line with its migrated
// and rolled-up counts, sizes and write stall. Idle passes stay silent.
func CompactionLogger(log *slog.Logger, onErr func(error)) func(recordstore.CompactStats, error) {
	return func(cs recordstore.CompactStats, err error) {
		if err != nil {
			if onErr != nil {
				onErr(err)
			}
			log.Error("store: compaction failed", "kind", "degraded", "error", err.Error())
			return
		}
		if cs.Migrated == 0 && cs.RolledUp == 0 {
			return
		}
		log.Info("store: compacted", "kind", "compaction",
			"migrated", cs.Migrated, "raw_bytes", cs.RawBytes,
			"segment_bytes", cs.SegmentBytes, "rolled_up", cs.RolledUp,
			"stall", time.Duration(cs.StallNs).String())
	}
}

// Server is a daemon's HTTP listener: the query API and the ops
// endpoints on one instrumented mux.
type Server struct {
	srv  *http.Server
	ln   net.Listener
	done chan error // Serve's result
}

// Listen binds addr and serves the query handler for cfg at "/" beside
// ops' /metrics, /healthz and optional /debug/pprof/, counting requests
// per endpoint on ops.Registry.
func Listen(addr string, cfg query.Config, ops telemetry.Ops) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", query.NewHandler(cfg))
	ops.Register(mux)
	s := &Server{ln: ln, done: make(chan error, 1), srv: &http.Server{
		Handler:           telemetry.InstrumentMux(ops.Registry, mux),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr is the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Failed delivers the error that stopped the server before Shutdown.
func (s *Server) Failed() <-chan error { return s.done }

// Shutdown stops accepting, gives in-flight requests 5 s to finish,
// closes what is left, and waits for Serve to return. A nil Server is a
// no-op.
func (s *Server) Shutdown() {
	if s == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if s.srv.Shutdown(ctx) != nil {
		s.srv.Close()
	}
	cancel()
	<-s.done
}

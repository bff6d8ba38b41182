// Command flowqueryd serves flow queries over HTTP/JSON: live top-k from
// an online tracker, historical records from mmap-backed record stores,
// and a network-wide merged view across stores and the live feeds.
//
//	flowqueryd -listen 127.0.0.1:8080 -store records.frec
//	flowqueryd -listen :8080 -store sw1.frec -store sw2.frec
//	flowqueryd -listen :8080 -store records.frec -netflow 127.0.0.1:2055
//	flowqueryd -listen :8080 -netflow 127.0.0.1:2055 -netflow 127.0.0.1:2056 -detect
//
// Endpoints (see package repro/query):
//
//	GET /topk?k=10                live heavy hitters (with -netflow), or
//	                              the primary store's all-time summary
//	GET /epochs                   epoch listing of the primary store
//	GET /flows?filter=dport=443   filtered records, ?epoch= or ?from=/?to=
//	GET /netwide/topk?k=10        top-k over all stores + the live feeds
//	GET /alerts?kind=anomaly      detection alerts (with -netflow -detect)
//	GET /changes?k=10             per-epoch heavy-change top-k lists
//	GET /netwide/alerts           cross-vantage correlated alerts with
//	                              per-vantage evidence (-detect, 2+ feeds)
//	GET /metrics                  runtime metrics, Prometheus text or
//	                              ?format=json
//	GET /healthz                  structured health snapshot (uptime,
//	                              epochs, vantages)
//	GET /events?kind=alert        live pipeline events over SSE, resumable
//	                              via Last-Event-ID
//	GET /trace/epochs             recent per-epoch stage timelines
//
// Every endpoint is also served under /v1/ — the stable, versioned
// surface with a structured {"error":{"code","message"}} envelope and
// strict parameter validation. The unversioned paths are deprecated
// aliases kept byte-compatible for existing clients (see API.md).
//
// The primary store (first -store) is re-opened per request, so a store a
// collector is still appending to is always served current. A -store may
// be a flat .frec file or a tiered directory (hot mmap tier + compressed
// cold segments + rollups) written by flowcollect's tiered mode; with
// -compactevery, flowqueryd itself applies the hot-window and retention
// policy to the primary tiered store on a timer.
//
// -netflow is repeatable: each listener is one vantage point with its
// own live tracker, all merged into /netwide/topk. Each vantage runs its
// epochs through its own repro/pipeline Pipeline, the same epoch pipeline
// `flowcollect serve` uses, without a store. With -detect, every
// vantage additionally runs its own detection subsystem (heavy changers,
// slow-ramp forecasting, superspreaders, victim fan-in, anomaly scoring)
// on its collector's epoch goroutine, and the per-vantage change
// summaries stream into a cross-vantage correlator that promotes keys
// alerting at -quorum vantages (or whose merged delta crosses
// -netwidedelta) to netwide alerts — queries, detection and correlation
// all stay off the datagram path.
//
// The correlator aligns vantages by epoch index, and each vantage's
// epochs are quiet-gap delimited independently: exporters must rotate
// in lockstep (the epoch-aligned `flowcollect export -epochpkts` mode,
// or any exporter family sharing a rotation clock) for index N to mean
// the same window everywhere. A vantage that misses a whole epoch
// window shifts its subsequent indices; the per-vantage evidence on
// each netwide alert makes such skew visible.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/collector"
	"repro/detect"
	"repro/pipeline"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
	"repro/topk"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flowqueryd:", err)
		os.Exit(1)
	}
}

// stringList collects a repeatable flag.
type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flowqueryd", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:8080", "HTTP listen address")
	var stores stringList
	fs.Var(&stores, "store", "record store: a flat .frec file or a tiered directory (repeatable; first is the primary)")
	hotEpochs := fs.Int("hotepochs", 64, "hot-window size the maintenance compactor enforces on the primary tiered store (with -compactevery)")
	retain := fs.Duration("retain", 0, "retention horizon the maintenance compactor applies: cold segments entirely older than this roll up to top-k summaries; 0 keeps everything (with -compactevery)")
	compactEvery := fs.Duration("compactevery", 0, "run compaction + retention on the primary tiered -store directory at this interval; 0 never. The directory must not be owned by a running collector")
	var nfs stringList
	fs.Var(&nfs, "netflow", "ingest NetFlow v5 on this UDP address into a live tracker (repeatable; each is one vantage)")
	gap := fs.Duration("gap", time.Second, "quiet gap closing a NetFlow epoch")
	topkCap := fs.Int("topk", 4096, "live tracker capacity in flows (per vantage)")
	det := fs.Bool("detect", false, "run detection on each live-ingested epoch (with -netflow)")
	detectConfig := pipeline.DetectFlags(fs)
	quorum := fs.Int("quorum", 0, "vantages that must alert on a key to promote it netwide (0 = min(2, vantages), with -detect)")
	netwideDelta := fs.Uint64("netwidedelta", 0, "merged |delta| promoting a key netwide (0 = 4x changedelta, with -detect)")
	runFor := fs.Duration("for", 0, "serve for this long then exit (0 = forever)")
	debug := fs.Bool("debug", false, "also serve net/http/pprof under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(stores) == 0 && len(nfs) == 0 {
		return errors.New("usage: flowqueryd [-listen addr] -store <file> [-store <file>...] [-netflow addr...]")
	}
	if *det && len(nfs) == 0 {
		return errors.New("-detect needs a live feed: pass -netflow too")
	}

	// Catch termination signals from the start so a SIGTERM during setup
	// still shuts the daemon down instead of killing it mid-listen.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	// The live-ops layer: one event bus and epoch tracer shared by every
	// vantage (events carry their vantage label), served as /events SSE and
	// /trace/epochs alongside the query endpoints. The logger mirrors
	// operational lines onto the same bus.
	reg := telemetry.NewRegistry()
	start := time.Now()
	bus := events.NewBus(events.DefaultRingCap)
	tracer := events.NewTracer(events.DefaultTraceKeep)
	logger := slog.New(events.NewLogHandler(w, bus, ""))
	events.RegisterMetrics(reg, bus)
	cfg := query.Config{Events: bus, Trace: tracer, Registry: reg}

	// Historical side: the primary store is re-opened per request (it may
	// still be growing); every store — flat file or tiered directory —
	// contributes its all-time summed view to the network-wide merge.
	for i, path := range stores {
		src, err := recordstore.Open(path)
		if err != nil {
			return fmt.Errorf("open %s: %w", path, err)
		}
		static, err := query.SumStore(src)
		src.Close()
		if err != nil {
			return fmt.Errorf("summarize %s: %w", path, err)
		}
		cfg.Netwide = append(cfg.Netwide, query.NamedSource{
			Name: filepath.Base(path), Source: static,
		})
		if i == 0 {
			cfg.Store = query.FileStore(path)
			cfg.TopK = static // the live tracker below overrides this
		}
	}

	// Maintenance compaction: when flowqueryd owns a tiered store no
	// collector is appending to (the query-daemon-over-archive
	// deployment), it can apply the hot-window and retention policy
	// itself on a timer instead of leaving the store frozen as written.
	if *compactEvery > 0 {
		if len(stores) == 0 {
			return errors.New("-compactevery needs a primary -store directory")
		}
		st, err := os.Stat(stores[0])
		if err != nil {
			return err
		}
		if !st.IsDir() {
			return fmt.Errorf("-compactevery needs a tiered store directory; %s is a flat file", stores[0])
		}
		tw, _, err := recordstore.OpenTiered(stores[0], recordstore.TieredOptions{
			HotEpochs: *hotEpochs,
			Retain:    *retain,
		})
		if err != nil {
			return err
		}
		// Joined before the store closes: a pass must never run on a
		// closed store or log after run returns.
		stop, done := make(chan struct{}), make(chan struct{})
		defer func() { close(stop); <-done; tw.Close() }()
		logCompaction := pipeline.CompactionLogger(logger, nil)
		go func() {
			defer close(done)
			t := time.NewTicker(*compactEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					logCompaction(tw.Compact())
				}
			}
		}()
		logger.Info(fmt.Sprintf("compacting %s every %s", stores[0], *compactEvery),
			"hotepochs", *hotEpochs, "retain", (*retain).String())
	}

	// Live side: one pipeline per NetFlow vantage — a live tracker and,
	// with -detect, a detector whose change summaries stream into one
	// cross-vantage correlator. Everything runs on each collector's epoch
	// goroutine, off the datagram paths.
	var corr *detect.Correlator
	dcfg := detectConfig()
	// Correlation needs at least two vantage points: with one, every
	// local heavy change would trivially satisfy a quorum of 1 and
	// /netwide/alerts would just duplicate /alerts.
	if *det && len(nfs) >= 2 {
		var err error
		corr, err = detect.NewCorrelator(detect.CorrelatorConfig{
			Vantages:        append([]string(nil), nfs...),
			Quorum:          *quorum, // 0 defaults to min(2, vantages)
			VantageMinDelta: dcfg.ChangeMinDelta,
			NetwideMinDelta: uint32(*netwideDelta),
		})
		if err != nil {
			return err
		}
		cfg.NetwideAlerts = corr
		// Report sub-threshold deltas so the correlator can promote
		// changes that only cross the line once merged (floored at 1: a
		// 0 would mean "default back to ChangeMinDelta").
		dcfg.SummaryMinDelta = max(dcfg.ChangeMinDelta/4, 1)
	}
	var (
		vantages      []*pipeline.Pipeline
		vantageHealth []telemetry.VantageHealth
	)
	for i, nf := range nfs {
		tracker, err := topk.NewTracker(*topkCap)
		if err != nil {
			return err
		}
		name := "live"
		if len(nfs) > 1 {
			name = "live:" + nf
		}
		var detector *detect.Detector
		if *det {
			if detector, err = detect.NewDetector(dcfg); err != nil {
				return err
			}
			detector.SetMetrics(detect.NewMetrics(reg, "vantage", nf))
			if corr != nil {
				detector.SetSummarySink(func(s detect.ChangeSummary) {
					corr.ObserveSummary(nf, s)
				})
			}
			if cfg.Alerts == nil {
				// /alerts serves the first vantage's detector; the
				// correlator's /netwide/alerts spans all of them.
				cfg.Alerts = detector
			}
		}
		// Epochs count per vantage (the correlator aligns epochs across
		// vantages by index).
		pl := pipeline.New(pipeline.Config{
			Vantage: name, Tracker: tracker, Detector: detector,
			Bus: bus, Tracer: tracer, Logger: logger,
		})
		srv, err := collector.Start(collector.Config{
			Listen: nf, EpochGap: *gap,
			Metrics: collector.NewMetrics(reg, "vantage", nf),
		}, pl.Sink)
		if err != nil {
			return err
		}
		// Deferred in order: the collector drains its in-flight epoch
		// through the pipeline, then the pipeline closes.
		defer pl.Close()
		defer srv.Shutdown()
		srv.RegisterMetrics(reg, "vantage", nf)
		vantages = append(vantages, pl)
		vantageHealth = append(vantageHealth, telemetry.VantageHealth{Name: name})
		if i == 0 {
			cfg.TopK = tracker
		}
		cfg.Netwide = append(cfg.Netwide, query.NamedSource{Name: name, Source: tracker})
		logger.Info(fmt.Sprintf("ingesting NetFlow on %s", srv.Addr()), "vantage", name)
	}
	// The summed epoch count versions the /netwide/topk cache: responses
	// stay memoized until the next epoch lands anywhere.
	epochs := func() uint64 {
		var n uint64
		for _, pl := range vantages {
			n += pl.Epochs()
		}
		return n
	}
	cfg.NetwideVersion = epochs

	httpSrv, err := pipeline.Listen(*listen, cfg, telemetry.Ops{
		Registry: reg,
		Health: func() telemetry.Health {
			return telemetry.Health{
				Status:        "ok",
				UptimeSeconds: telemetry.Uptime(start),
				Epochs:        epochs(),
				Vantages:      vantageHealth,
			}
		},
		Debug: *debug,
	})
	if err != nil {
		return err
	}
	logger.Info(fmt.Sprintf("flowqueryd serving on http://%s", httpSrv.Addr()))

	// Serve until the deadline (if any) or a termination signal, then shut
	// down gracefully: stop accepting and let in-flight queries finish
	// under a deadline. The deferred collector Shutdowns then drain each
	// vantage's in-flight epoch through its pipeline before the process
	// exits.
	var deadline <-chan time.Time
	if *runFor > 0 {
		deadline = time.After(*runFor)
	}
	select {
	case err := <-httpSrv.Failed():
		return err
	case <-deadline:
	case sig := <-sigCh:
		logger.Info(fmt.Sprintf("received %v, shutting down", sig))
	}
	httpSrv.Shutdown()
	return nil
}

// Package pipeline is the per-vantage epoch pipeline both daemons run:
// `flowcollect serve` builds one over its record store, flowqueryd one
// per -netflow vantage without a store. Sink, the collector.Sink, runs
// each closed epoch through a fixed stage order, a stage present only
// when its component is configured:
//
//	tracker → store_write → store_flush (+ fsync) → detect → checkpoint
//
// Each stage is timed into the epoch's span (/trace/epochs and the
// "epoch" event), alerts are published on the event bus, and a sticky
// store failure is logged once as degraded. Around the sink, New
// restores the detector checkpoint or seeds detection from stored
// history, Health builds /healthz, and Close checkpoints, reports a
// sticky store error, compacts a tiered store, syncs and closes it.
// No caller composes stages differently, so there is no stage interface.
package pipeline

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync/atomic"
	"time"

	"repro/collector"
	"repro/detect"
	"repro/flow"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
	"repro/topk"
)

// Store is the record store surface the pipeline writes through:
// recordstore.FileWriter or recordstore.Tiered. One that also has
// Compact() (recordstore.CompactStats, error) is compacted at Close.
type Store interface {
	recordstore.EpochWriter
	Sync() error
	Close() error
	Fsyncs() uint64
	LastFsyncNs() int64
}

// Config wires one vantage's components; a nil one drops its stages.
type Config struct {
	Vantage string // labels the epoch spans and alert events
	Tracker *topk.Tracker
	// Store is synced and closed by Close. StorePath and Recovery
	// describe it for /healthz; SeedHistory replays StorePath.
	Store     Store
	StorePath string
	Recovery  recordstore.Recovery
	Detector  *detect.Detector
	// Checkpoint is restored by New and saved every CheckpointEvery
	// evaluated epochs (every epoch if < 1) and by Close.
	Checkpoint      string
	CheckpointEvery int
	// SeedHistory replays this many stored epochs through the detector
	// when no checkpoint restored and the store is not new.
	SeedHistory int
	// Bus and Tracer may be nil; Logger is required.
	Bus    *events.Bus
	Tracer *events.Tracer
	Logger *slog.Logger
}

// Pipeline is one vantage's epoch pipeline. Sink runs on the collector's
// epoch goroutine; the other methods are safe from any goroutine.
type Pipeline struct {
	cfg         Config
	log         *slog.Logger
	store       *collector.EpochStore // nil without a store
	start       time.Time
	epochs      atomic.Uint64
	storeHealth *telemetry.StoreHealth
	ckptHealth  *telemetry.CheckpointHealth
	lastErr     atomic.Pointer[string]
	degraded    bool // epoch goroutine only: the store event fires once
}

// New builds the pipeline and runs the open half of the lifecycle.
// Recovery, restore and seeding outcomes are logged, never fatal.
func New(cfg Config) *Pipeline {
	cfg.CheckpointEvery = max(cfg.CheckpointEvery, 1)
	p := &Pipeline{cfg: cfg, log: cfg.Logger, start: time.Now()}
	if cfg.Store != nil {
		rec := cfg.Recovery
		p.store = collector.NewEpochStore(cfg.Store)
		p.storeHealth = &telemetry.StoreHealth{Path: cfg.StorePath, State: "created",
			EpochsRecovered: rec.Epochs, TornBytes: rec.TornBytes}
		if !rec.Created {
			p.storeHealth.State = "recovered"
		}
		if !rec.Created || rec.TornBytes > 0 {
			p.log.Info("store: recovered "+cfg.StorePath, "kind", "recovery",
				"epochs_intact", rec.Epochs, "torn_bytes", rec.TornBytes)
		}
	}
	if cfg.Detector != nil && cfg.Checkpoint != "" {
		p.restoreCheckpoint()
	}
	if cfg.Detector != nil && cfg.SeedHistory > 0 && p.epochs.Load() == 0 &&
		cfg.Store != nil && !cfg.Recovery.Created {
		p.seedHistory()
	}
	return p
}

// restoreCheckpoint loads pre-crash evaluation state so a ramp in
// progress across the restart still alerts. A missing file is a normal
// first boot; anything else starts cold and says so.
func (p *Pipeline) restoreCheckpoint() {
	d, path := p.cfg.Detector, p.cfg.Checkpoint
	p.ckptHealth = &telemetry.CheckpointHealth{Path: path, State: "cold"}
	switch err := d.LoadCheckpoint(path); {
	case err == nil:
		p.log.Info("checkpoint: restored "+path, "kind", "checkpoint",
			"epochs", d.Epochs(), "forecast_keys", d.ForecastTracked())
		*p.ckptHealth = telemetry.CheckpointHealth{Path: path, State: "restored",
			Epochs: d.Epochs(), ForecastKeys: d.ForecastTracked()}
		p.epochs.Store(d.Epochs())
	case errors.Is(err, os.ErrNotExist):
	default:
		p.ckptHealth.Error = err.Error()
		p.log.Warn(fmt.Sprintf("checkpoint: %s unusable; starting cold", path),
			"kind", "checkpoint", "error", err.Error())
	}
}

// seedHistory approximates warm detection state by replaying stored
// history through the detector (alerts suppressed: they fired when
// those epochs were live); the epoch count continues where it ends.
func (p *Pipeline) seedHistory() {
	src, err := recordstore.Open(p.cfg.StorePath)
	if err != nil {
		p.log.Warn("detect: history seed unavailable", "kind", "seed", "error", err.Error())
		return
	}
	d := p.cfg.Detector
	n, err := d.SeedFromHistory(src, p.cfg.SeedHistory)
	src.Close()
	if err != nil {
		p.log.Warn("detect: history seed failed", "kind", "seed", "epochs", n, "error", err.Error())
	} else if n > 0 {
		p.epochs.Store(d.Epochs())
		p.log.Info("detect: seeded baselines from history", "kind", "seed",
			"epochs", n, "forecast_keys", d.ForecastTracked())
	}
}

// Sink runs one closed epoch through the configured stages. The store
// is flushed every epoch, so a reader reopening it (flowqueryd -store on
// the same file) sees the epoch as soon as it closes.
func (p *Pipeline) Sink(ts time.Time, records []flow.Record) {
	ep := int(p.epochs.Load())
	sp := events.Begin(p.cfg.Vantage, ep, ts, len(records))
	if t := p.cfg.Tracker; t != nil {
		sp.Time("tracker", func() { t.AddRecords(records) })
	}
	if s := p.store; s != nil {
		preFsyncs := p.cfg.Store.Fsyncs()
		sp.Time("store_write", func() { s.Sink(ts, records) })
		sp.Time("store_flush", func() { _ = s.Flush() }) // sticky, checked below
		// The durability policy fsyncs inside write/flush; report it as
		// its own timeline entry too.
		if p.cfg.Store.Fsyncs() > preFsyncs {
			sp.StageNs("fsync", p.cfg.Store.LastFsyncNs())
		}
		if err := s.Err(); err != nil && !p.degraded {
			p.degraded = true
			p.Degrade(p.storeErr(err))
			p.log.Error("store: write failed, later epochs dropped",
				"kind", "degraded", "epoch", ep, "error", err.Error())
		}
	}
	if d := p.cfg.Detector; d != nil {
		var as []detect.Alert
		sp.Time("detect", func() { as = d.Observe(ep, ts, records) })
		sp.AddAlerts(len(as))
		if bus := p.cfg.Bus; bus != nil {
			for _, a := range as {
				bus.Publish(events.AlertEvent(p.cfg.Vantage, a))
			}
		}
		if p.cfg.Checkpoint != "" && d.Epochs()%uint64(p.cfg.CheckpointEvery) == 0 {
			sp.Time("checkpoint", func() {
				if err := d.SaveCheckpoint(p.cfg.Checkpoint); err != nil {
					p.Degrade(fmt.Errorf("checkpoint save: %w", err))
					p.log.Error("checkpoint: save failed",
						"kind", "checkpoint", "epoch", ep, "error", err.Error())
				}
			})
		}
	}
	sp.End(p.cfg.Bus, p.cfg.Tracer)
	p.epochs.Add(1)
}

func (p *Pipeline) storeErr(err error) error {
	return fmt.Errorf("store write (%d later epochs dropped): %w", p.store.Dropped(), err)
}

// Epochs counts the epochs run, starting from a restored checkpoint or
// the seeded history.
func (p *Pipeline) Epochs() uint64 { return p.epochs.Load() }

// Degrade records err as the last error: Health reports "degraded" from
// then on.
func (p *Pipeline) Degrade(err error) {
	msg := err.Error()
	p.lastErr.Store(&msg)
}

// Health is the /healthz snapshot: liveness plus the store and
// checkpoint recovery facts, degraded once any component failed.
func (p *Pipeline) Health() telemetry.Health {
	h := telemetry.Health{Status: "ok", UptimeSeconds: telemetry.Uptime(p.start),
		Epochs: p.Epochs(), Store: p.storeHealth, Checkpoint: p.ckptHealth}
	if p.store != nil && p.store.Err() != nil {
		p.Degrade(p.storeErr(p.store.Err()))
	}
	if msg := p.lastErr.Load(); msg != nil {
		h.Status, h.LastError = "degraded", *msg
	}
	return h
}

// Close runs the shutdown half once the collector has drained its last
// epoch through Sink: final checkpoint (last epoch included), sticky
// store error, final compaction of a tiered store, Sync, and Close.
func (p *Pipeline) Close() error {
	if d := p.cfg.Detector; d != nil && p.cfg.Checkpoint != "" {
		if err := d.SaveCheckpoint(p.cfg.Checkpoint); err != nil {
			p.log.Error("checkpoint: final save failed", "kind", "checkpoint", "error", err.Error())
		}
	}
	if p.store == nil {
		return nil
	}
	// Err before any flush: Flush also returns the sticky write error,
	// which would hide the dropped-epoch count.
	err := p.store.Err()
	if err != nil {
		err = fmt.Errorf("store write failed (%d later epochs dropped): %w", p.store.Dropped(), err)
	} else if c, ok := p.cfg.Store.(interface {
		Compact() (recordstore.CompactStats, error)
	}); ok {
		if _, err = c.Compact(); err != nil {
			err = fmt.Errorf("final compaction: %w", err)
		}
	}
	if err == nil {
		err = p.cfg.Store.Sync()
	}
	if cerr := p.cfg.Store.Close(); err == nil {
		err = cerr
	}
	return err
}

package adaptive

import (
	"strconv"
	"sync"

	"repro/telemetry"
)

// Metrics carries the epoch-lifecycle instruments of a Manager: how
// long rotation stalls the ingest path, where drain time goes stage by
// stage (extract → flush → detect → reset), and how many drain panics
// have been swallowed. All observations happen at epoch granularity —
// the per-packet path is untouched.
type Metrics struct {
	// RotationStallNs is the ingest-visible cost of one Flush in
	// double-buffered mode: waiting for the standby recorder plus
	// handing the full one to the drain worker. If the drain worker
	// keeps up this is nanoseconds; sustained growth means rotation is
	// outpacing extraction.
	RotationStallNs *telemetry.Histogram
	// ExtractNs, FlushCbNs, ResetNs time the drain stages: record
	// extraction, the flush callback (store write, NetFlow export),
	// and the recorder reset.
	ExtractNs *telemetry.Histogram
	FlushCbNs *telemetry.Histogram
	ResetNs   *telemetry.Histogram
	// DrainPanics mirrors Manager.DrainPanics as an exported counter.
	DrainPanics *telemetry.Counter
	// Epochs counts drained epochs.
	Epochs *telemetry.Counter

	// Per-observer detect timing, created lazily on first use because
	// observers attach independently of metrics.
	reg    *telemetry.Registry
	labels []string
	detMu  sync.Mutex
	detNs  []*telemetry.Histogram
}

// NewMetrics registers the manager instruments under the given label
// pairs and returns them for SetMetrics.
func NewMetrics(reg *telemetry.Registry, labelPairs ...string) *Metrics {
	stage := func(s string) *telemetry.Histogram {
		lbl := append(append([]string{}, labelPairs...), "stage", s)
		return reg.Histogram(telemetry.Name("adaptive_drain_stage_ns", lbl...),
			"drain worker time per epoch in one stage, ns")
	}
	return &Metrics{
		RotationStallNs: reg.Histogram(
			telemetry.Name("adaptive_rotation_stall_ns", labelPairs...),
			"ingest-visible epoch rotation stall (standby wait + handoff), ns"),
		ExtractNs: stage("extract"),
		FlushCbNs: stage("flush"),
		ResetNs:   stage("reset"),
		DrainPanics: reg.Counter(
			telemetry.Name("adaptive_drain_panics_total", labelPairs...),
			"panics recovered on the drain path"),
		Epochs: reg.Counter(
			telemetry.Name("adaptive_epochs_total", labelPairs...),
			"epochs drained"),
		reg:    reg,
		labels: labelPairs,
	}
}

// detectorNs returns the detect-stage histogram for observer i,
// labeled {stage="detect",observer="i"} so each attached observer's
// cost is visible separately. Creation is lazy (observers attach
// independently of metrics) and happens at most once per observer.
func (mm *Metrics) detectorNs(i int) *telemetry.Histogram {
	mm.detMu.Lock()
	defer mm.detMu.Unlock()
	for len(mm.detNs) <= i {
		lbl := append(append([]string{}, mm.labels...),
			"stage", "detect", "observer", strconv.Itoa(len(mm.detNs)))
		mm.detNs = append(mm.detNs, mm.reg.Histogram(
			telemetry.Name("adaptive_drain_stage_ns", lbl...),
			"drain worker time per epoch in one stage, ns"))
	}
	return mm.detNs[i]
}

// SetMetrics attaches epoch-lifecycle instruments. Call before
// ingestion begins, like AttachDetector: the field is read without
// synchronization by the drain worker and the ingest path.
func (m *Manager) SetMetrics(mm *Metrics) { m.metrics = mm }

// SetDrainErrorHook installs a callback invoked exactly once, with the
// first drain-path panic (converted to an error), from the goroutine
// that recovered it. Daemons use it to log the failure when it
// happens instead of when someone asks. Call before ingestion begins.
func (m *Manager) SetDrainErrorHook(fn func(error)) { m.onDrainErr = fn }

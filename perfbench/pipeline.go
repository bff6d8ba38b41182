package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/adaptive"
	"repro/collector"
	"repro/detect"
	"repro/flow"
	"repro/flowmon"
	"repro/netflow"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
	"repro/topk"
)

// Fixed settings of the composition under test. They mirror the daemon
// defaults (1 MiB HashFlow, NetFlow v5 with 700-byte average packets, a
// 4096-entry live top-k, the serve-mode detector thresholds), except
// that the store keeps a small hot tier so that every workload compacts
// within a run.
const (
	memoryBytes  = 1 << 20
	avgPktBytes  = 700
	topkCapacity = 4096
	hotEpochs    = 8
	compactEvery = 8
	// epochGap is the collector's quiet gap. It must exceed the longest
	// pause inside one epoch's export burst, or the collector splits the
	// epoch; the output checks count a split as a failure. On 2 CPUs,
	// with compaction and detection running beside the exporter, 40 ms
	// was seen to split an epoch.
	epochGap = 100 * time.Millisecond
	// feedBatch is how many packets each UpdateBatch call carries.
	feedBatch = 4096
	// sinkWait bounds how long the drain waits for the previous epoch to
	// become queryable before it exports anyway (and a check fails).
	sinkWait = 10 * time.Second
)

// epochLog is what the benchmark saw of one recorder epoch. The feeder
// fills the first fields, the drain worker the export fields.
type epochLog struct {
	input   int
	pkts    uint64
	due     time.Time // open loop only: when the epoch was due
	start   time.Time // first packet fed
	rotate  time.Time // Flush call that closed the epoch
	drainIn time.Time // flush callback entered
	waited  time.Time // previous epoch queryable, export starts
	sent    time.Time // last datagram of the epoch sent
	records int
	digest  uint64
}

// sinkLog is one collector sink call. tracked and stored end the tracker
// and the store calls; traced runs only take them.
type sinkLog struct {
	enter, tracked, stored, done time.Time
	records, alerts              int
}

// pipeline is one instance of the production composition: a
// double-buffered adaptive.Manager over two HashFlow recorders whose
// drain exports each epoch through netflow.EpochExporter over loopback
// UDP to collector.Start, whose sink runs, in flowcollect serve order,
// topk.Tracker.AddRecords, collector.EpochStore Sink+Flush on a tiered
// store, and detect.Detector.Observe; query.NewHandler serves the store
// and the tracker over HTTP. Every layer's production instruments are
// attached to one telemetry.Registry, as the daemons attach them.
type pipeline struct {
	dir    string
	prepop int // epochs already in the store when it opened
	traced bool

	reg     *telemetry.Registry
	mgr     *adaptive.Manager
	ee      *netflow.EpochExporter
	conn    net.Conn
	col     *collector.Server
	tiered  *recordstore.Tiered
	store   *collector.EpochStore
	tracker *topk.Tracker
	det     *detect.Detector
	httpSrv *http.Server
	httpErr chan error
	baseURL string
	storeM  *recordstore.Metrics

	datagrams atomic.Uint64
	queryable atomic.Int64 // epochs the store serves: prepop + sinks returned
	sinkCh    chan struct{}

	mu          sync.Mutex
	eps         []epochLog
	sinks       []sinkLog
	compactions []recordstore.CompactStats
	compactErr  error
	exportErr   error
	waitTimeout int
	closed      bool
}

// newPipeline builds the composition on the store directory dir (empty,
// or holding prepop epochs) and returns it ready for packets and
// requests.
func newPipeline(dir string, prepop int, traced bool) (p *pipeline, err error) {
	p = &pipeline{
		dir:    dir,
		prepop: prepop,
		traced: traced,
		reg:    telemetry.NewRegistry(),
		// One token per completed sink call; the drain consumes one per
		// epoch before exporting the next. Sized so a collector that
		// splits epochs can never block on it.
		sinkCh:  make(chan struct{}, 1<<16),
		httpErr: make(chan error, 1),
	}
	p.queryable.Store(int64(prepop))
	defer func() {
		if err != nil {
			p.close()
		}
	}()

	p.tiered, _, err = recordstore.OpenTiered(dir, recordstore.TieredOptions{
		HotEpochs:    hotEpochs,
		CompactEvery: compactEvery,
		OnCompact:    p.onCompact,
	})
	if err != nil {
		return p, fmt.Errorf("open store: %w", err)
	}
	p.storeM = recordstore.NewMetrics(p.reg)
	p.tiered.SetMetrics(p.storeM)
	p.store = collector.NewEpochStore(p.tiered)

	if p.tracker, err = topk.NewTracker(topkCapacity); err != nil {
		return p, err
	}
	p.det, err = detect.NewDetector(detect.Config{
		FanoutThreshold:   128,
		FanInThreshold:    128,
		ChangeMinDelta:    1024,
		ForecastThreshold: 1024,
	})
	if err != nil {
		return p, err
	}
	p.det.SetMetrics(detect.NewMetrics(p.reg))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	p.baseURL = "http://" + ln.Addr().String()
	p.httpSrv = &http.Server{
		Handler: query.NewHandler(query.Config{
			TopK:     p.tracker,
			Store:    query.FileStore(dir),
			Alerts:   p.det,
			Registry: p.reg,
		}),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	go func() { p.httpErr <- p.httpSrv.Serve(ln) }()

	p.col, err = collector.Start(collector.Config{
		Listen:   "127.0.0.1:0",
		EpochGap: epochGap,
		Metrics:  collector.NewMetrics(p.reg),
	}, p.sink)
	if err != nil {
		return p, err
	}
	p.col.RegisterMetrics(p.reg)

	if p.conn, err = net.Dial("udp", p.col.Addr().String()); err != nil {
		return p, err
	}
	p.ee = netflow.NewEpochExporter(nil, netflow.NewExporter(p.send))

	cfg := flowmon.Config{MemoryBytes: memoryBytes, Seed: 1}
	active, err := flowmon.New(flowmon.AlgorithmHashFlow, cfg)
	if err != nil {
		return p, err
	}
	standby, err := flowmon.New(flowmon.AlgorithmHashFlow, cfg)
	if err != nil {
		return p, err
	}
	// Epoch boundaries are the benchmark's explicit Flush calls; park the
	// manager's own packet and cardinality triggers.
	p.mgr, err = adaptive.NewDoubleBuffered(active, standby, adaptive.Config{
		Capacity:        1,
		HighWatermark:   1,
		MaxEpochPackets: 1 << 62,
		CheckEvery:      1 << 62,
	}, p.flush)
	if err != nil {
		return p, err
	}
	p.mgr.SetMetrics(adaptive.NewMetrics(p.reg))
	return p, nil
}

func (p *pipeline) send(b []byte) error {
	p.datagrams.Add(1)
	_, err := p.conn.Write(b)
	return err
}

func (p *pipeline) onCompact(cs recordstore.CompactStats, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil && p.compactErr == nil {
		p.compactErr = err
	}
	if err == nil && cs.Migrated > 0 {
		p.compactions = append(p.compactions, cs)
	}
}

// feed records one epoch's packets and closes the epoch. It runs on the
// single feeding goroutine; spans record each UpdateBatch call and the
// rotation when the run is traced.
func (p *pipeline) feed(in *epochInput, input int, due time.Time, tr *tracer) {
	start := time.Now()
	p.mu.Lock()
	e := len(p.eps)
	p.eps = append(p.eps, epochLog{input: input, pkts: uint64(len(in.pkts)), due: due, start: start})
	p.mu.Unlock()
	root := tr.epochRoot(e)
	for off := 0; off < len(in.pkts); off += feedBatch {
		chunk := in.pkts[off:min(off+feedBatch, len(in.pkts))]
		if tr == nil {
			p.mgr.UpdateBatch(chunk)
			continue
		}
		t0 := time.Now()
		p.mgr.UpdateBatch(chunk)
		tr.add(root, e, "flowmon.update", t0, time.Now(), len(chunk))
	}
	rot := time.Now()
	p.mu.Lock()
	p.eps[e].rotate = rot
	p.mu.Unlock()
	p.mgr.Flush()
	if tr != nil {
		tr.add(root, e, "adaptive.rotate", rot, time.Now(), 1)
	}
}

// flush is the manager's drain callback. It holds the loop closed at
// epoch granularity: epoch e is exported only once epoch e-1 is
// queryable, so the collector's quiet gap always separates two epochs
// and the UDP receive buffer only ever holds one epoch.
func (p *pipeline) flush(epoch int, recs []flow.Record) {
	enter := time.Now()
	if epoch > 0 {
		select {
		case <-p.sinkCh:
		case <-time.After(sinkWait):
			p.mu.Lock()
			p.waitTimeout++
			p.mu.Unlock()
		}
	}
	waited := time.Now()
	_, err := p.ee.FlushRecords(recs, avgPktBytes)
	sent := time.Now()
	d := digest(recs)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil && p.exportErr == nil {
		p.exportErr = err
	}
	l := &p.eps[epoch]
	l.drainIn, l.waited, l.sent, l.records, l.digest = enter, waited, sent, len(recs), d
}

// sink is the collector's epoch sink, composed as flowcollect serve
// composes it: live top-k, then store write and flush, then detection.
func (p *pipeline) sink(ts time.Time, recs []flow.Record) {
	s := sinkLog{enter: time.Now(), records: len(recs)}
	p.tracker.AddRecords(recs)
	if p.traced {
		s.tracked = time.Now()
	}
	p.store.Sink(ts, recs)
	_ = p.store.Flush() // sticky; checked through store.Err after the run
	if p.traced {
		s.stored = time.Now()
	}
	p.mu.Lock()
	k := len(p.sinks)
	p.mu.Unlock()
	s.alerts = len(p.det.Observe(k, ts, recs))
	s.done = time.Now()
	p.queryable.Add(1)
	p.mu.Lock()
	p.sinks = append(p.sinks, s)
	p.mu.Unlock()
	select {
	case p.sinkCh <- struct{}{}:
	default:
	}
}

// finish drains the manager and waits until the last exported epoch is
// queryable.
func (p *pipeline) finish() {
	p.mgr.Close()
	p.mu.Lock()
	exported := len(p.eps)
	p.mu.Unlock()
	if exported == 0 {
		return
	}
	select {
	case <-p.sinkCh:
	case <-time.After(sinkWait):
		p.mu.Lock()
		p.waitTimeout++
		p.mu.Unlock()
	}
}

// close shuts the composition down in flowcollect serve's order: stop
// ingest (the collector drains any open epoch through the sink), close
// the store (waiting out compaction), then stop answering queries.
func (p *pipeline) close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	var errs []error
	if p.mgr != nil {
		p.mgr.Close()
	}
	if p.conn != nil {
		p.conn.Close()
	}
	if p.col != nil {
		p.col.Shutdown()
	}
	if p.tiered != nil {
		if err := p.store.Err(); err != nil {
			errs = append(errs, fmt.Errorf("store write: %w", err))
		}
		if err := p.tiered.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close store: %w", err))
		}
	}
	if p.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := p.httpSrv.Shutdown(ctx); err != nil {
			p.httpSrv.Close()
		}
		cancel()
		if err := <-p.httpErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, fmt.Errorf("http server: %w", err))
		}
	}
	return errors.Join(errs...)
}

// snapshot copies the logs for analysis after the run.
func (p *pipeline) snapshot() ([]epochLog, []sinkLog, []recordstore.CompactStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]epochLog(nil), p.eps...), append([]sinkLog(nil), p.sinks...),
		append([]recordstore.CompactStats(nil), p.compactions...)
}

// digest is an order-independent hash of a record multiset.
func digest(recs []flow.Record) uint64 {
	var sum uint64
	for _, r := range recs {
		w1, w2 := r.Key.Words()
		sum += mix(w1 ^ mix(w2^mix(uint64(r.Count))))
	}
	return sum
}

// mix is the splitmix64 finalizer.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

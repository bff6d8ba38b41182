package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string
}

// setupReps is how many times a run sets the composition up — builds it
// and takes it through its first queryable epoch; setup_s is the median.
const setupReps = 5

// phase is what one timed pass over the pipeline measured.
type phase struct {
	pkts     uint64    // packets fed in timed epochs
	latency  []float64 // ms per timed epoch: rotation (or due time) until its sink returned
	rate     float64   // pkts over the time from the first timed packet until the last epoch is queryable
	lag      []float64 // ms the open-loop writer started each epoch late
	samples  []sample
	mem      [2]runtime.MemStats // around the pipeline part
	compacts int                 // compactions during the timed part
	maxStall time.Duration
}

// run executes one workload run: generate inputs, set up, measure, check.
func run(o options, s spec, log io.Writer) (result, error) {
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	inputs, err := makeInputs(s, o.seed)
	if err != nil {
		return result{}, err
	}
	work := filepath.Join(o.out, "run-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(work); err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)
	tmpl := filepath.Join(work, "template")
	if s.prepop > 0 {
		if err := prepopulate(tmpl, s, inputs); err != nil {
			return result{}, fmt.Errorf("pre-populate store: %w", err)
		}
	}
	freshStore := func(name string) (string, error) {
		dir := filepath.Join(work, name)
		if err := os.RemoveAll(dir); err != nil {
			return "", err
		}
		if s.prepop > 0 {
			return dir, copyDir(tmpl, dir)
		}
		return dir, nil
	}

	// Set-up: build the composition several times, keep the last one.
	reps := setupReps
	if o.trace {
		reps = 1
	}
	var (
		setups []float64
		p      *pipeline
	)
	for r := 0; r < reps; r++ {
		dir, err := freshStore("untraced")
		if err != nil {
			return result{}, err
		}
		runtime.GC()
		t0 := time.Now()
		if p, err = newPipeline(dir, s.prepop, false); err != nil {
			return result{}, fmt.Errorf("set up: %w", err)
		}
		ready, err := warmUp(p, inputs)
		if err != nil {
			p.close()
			return result{}, err
		}
		setups = append(setups, ready.Sub(t0).Seconds())
		if r < reps-1 {
			if err := p.close(); err != nil {
				return result{}, err
			}
		}
	}

	var c checks
	a, err := measure(p, s, inputs, o, nil, log)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return result{}, err
	}
	if err := verify(&c, p, a.samples); err != nil {
		return result{}, err
	}
	fsc, are, f1, err := accuracy(&c, p, inputs, hhThreshold(s.profile))
	if err != nil {
		return result{}, err
	}
	rss, err := peakRSS()
	if err != nil {
		return result{}, err
	}

	res := result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	if !o.trace {
		put("setup_s", "s", median(setups))
		put("pkts_per_s", "pkts/s", a.rate)
		put("epoch_latency_ms.p50", "ms", pct(log, "epoch_latency_ms", a.latency, 0.50))
		qms := make([]float64, len(a.samples))
		for i, q := range a.samples {
			qms[i] = q.ms()
		}
		put("query_ms.p50", "ms", pct(log, "query_ms", qms, 0.50))
		put("query_ms.p95", "ms", pct(log, "query_ms", qms, 0.95))
		put("queries_per_s", "1/s", queryRate(a.samples))
		put("fsc", "ratio", fsc)
		put("size_are", "ratio", are)
		put("hh_f1", "ratio", f1)
		put("peak_rss_mb", "MB", rss)
	} else {
		dir, err := freshStore("traced")
		if err != nil {
			return result{}, err
		}
		tp, err := newPipeline(dir, s.prepop, true)
		if err != nil {
			return result{}, fmt.Errorf("set up traced run: %w", err)
		}
		if _, err := warmUp(tp, inputs); err != nil {
			tp.close()
			return result{}, err
		}
		tr := newTracer()
		b, err := measure(tp, s, inputs, o, tr, log)
		if cerr := tp.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return result{}, err
		}
		if err := verify(&c, tp, b.samples); err != nil {
			return result{}, err
		}
		eps, sinks, _ := tp.snapshot()
		tr.addEpochSpans(eps, sinks)
		perLayer(put, log, s, tp, tr, a, b)
		spans := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, o.seed))
		if err := tr.write(spans); err != nil {
			return result{}, err
		}
		fmt.Fprintf(log, "perfbench: %d spans written to %s\n", len(tr.spans), spans)
	}
	for _, n := range c.notes {
		fmt.Fprintln(log, "perfbench: check failed:", n)
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0
	return res, nil
}

// warmUp takes a new composition through its first epoch, untraced, and
// returns when that epoch became queryable: set-up is done then.
func warmUp(p *pipeline, inputs []*epochInput) (time.Time, error) {
	p.feed(inputs[0], 0, time.Time{}, nil)
	deadline := time.Now().Add(sinkWait)
	for p.queryable.Load() < int64(p.prepop+1) {
		if time.Now().After(deadline) {
			return time.Time{}, errors.New("warm-up epoch never became queryable")
		}
		time.Sleep(time.Millisecond)
	}
	_, sinks, _ := p.snapshot()
	return sinks[0].done, nil
}

// measure runs the timed phase on a warmed-up p: closed loop followed by
// a query phase on a settled store, or (with a period) open-loop writes
// beside two query clients.
func measure(p *pipeline, s spec, inputs []*epochInput, o options, tr *tracer, log io.Writer) (phase, error) {
	var ph phase
	k := len(inputs)
	var q *querier
	if s.period > 0 {
		var err error
		if q, err = newQuerier(p, inputs, o.seed, tr); err != nil {
			return ph, err
		}
	}
	runtime.GC() // collect set-up garbage before timing
	runtime.ReadMemStats(&ph.mem[0])
	_, _, before := p.snapshot()
	dur := time.Duration(o.seconds * float64(time.Second))
	// minEpochs may stretch the phase past dur; a machine too slow to
	// reach it in another minute stops early (and warns on the
	// percentiles) rather than overrun the run's time limit.
	hardStop := dur + time.Minute
	t0 := time.Now()
	var (
		stop = make(chan struct{})
		done = make(chan []sample, 1)
	)
	if q != nil {
		go func() { done <- q.run(0, stop) }()
	}
	timed := 0
	for e := 1; ; e++ {
		if el := time.Since(t0); el > hardStop || (el >= dur && timed >= s.minEpochs) {
			break
		}
		var due time.Time
		if s.period > 0 {
			due = t0.Add(time.Duration(timed) * s.period)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			ph.lag = append(ph.lag, float64(max(0, time.Since(due).Nanoseconds()))/1e6)
		}
		in := inputs[e%k]
		p.feed(in, e%k, due, tr)
		ph.pkts += uint64(len(in.pkts))
		timed++
	}
	p.finish()
	runtime.ReadMemStats(&ph.mem[1])
	if q != nil {
		close(stop)
		ph.samples = <-done
	}
	eps, sinks, compactions := p.snapshot()
	for _, cs := range compactions[len(before):] {
		ph.compacts++
		ph.maxStall = max(ph.maxStall, time.Duration(cs.StallNs))
	}
	for e := 1; e < len(eps) && e < len(sinks); e++ {
		from := eps[e].rotate
		if !eps[e].due.IsZero() {
			from = eps[e].due
		}
		ph.latency = append(ph.latency, float64(sinks[e].done.Sub(from).Nanoseconds())/1e6)
	}
	if len(sinks) > 0 {
		ph.rate = float64(ph.pkts) / sinks[len(sinks)-1].done.Sub(t0).Seconds()
	}
	fmt.Fprintf(log, "perfbench: %d timed epochs, %.4g pkts/s\n", timed, ph.rate)
	if q == nil {
		// Settle the store as flowcollect serve does at shutdown, then
		// query it.
		if _, err := p.tiered.Compact(); err != nil {
			return ph, fmt.Errorf("final compaction: %w", err)
		}
		var err error
		if q, err = newQuerier(p, inputs, o.seed, tr); err != nil {
			return ph, err
		}
		runtime.GC()
		ph.samples = q.run(s.queryReqs/clients, nil)
	}
	return ph, nil
}

// perLayer computes the per-layer metrics of the traced phase b; a is
// the untraced phase of the same run, for the tracing overhead.
func perLayer(put func(string, string, float64), log io.Writer, s spec, p *pipeline, tr *tracer, a, b phase) {
	perItem := func(name string) float64 {
		var ns, n float64
		for _, sp := range tr.byName(name) {
			ns += float64(sp.dur())
			n += float64(sp.N)
		}
		if n == 0 {
			return 0
		}
		return ns / n
	}
	durs := func(name string, unit time.Duration) []float64 {
		var out []float64
		for _, sp := range tr.byName(name) {
			out = append(out, float64(sp.dur())/float64(unit))
		}
		return out
	}
	put("flowmon.update_ns_per_pkt", "ns", perItem("flowmon.update"))
	stall := durs("adaptive.rotate", time.Microsecond)
	put("adaptive.rotate_stall_us.p50", "us", pct(log, "adaptive.rotate_stall_us", stall, 0.5))
	put("adaptive.rotate_stall_us.max", "us", slices.Max(stall))
	put("adaptive.drain_wait_ms.p50", "ms", pct(log, "adaptive.drain_wait_ms", durs("adaptive.drain_wait", time.Millisecond), 0.5))
	put("netflow.export_ns_per_record", "ns", perItem("netflow.export"))
	put("netflow.datagrams", "count", float64(p.datagrams.Load()))

	lag := durs("collector.close_lag", time.Millisecond)
	for i := range lag {
		lag[i] -= float64(epochGap) / float64(time.Millisecond)
	}
	put("collector.close_lag_ms.p50", "ms", pct(log, "collector.close_lag_ms", lag, 0.5))
	st := p.col.Stats()
	put("collector.records_lost", "count", float64(st.Lost))
	put("collector.bad_datagrams", "count", float64(st.BadData))
	var dgrams, batches uint64
	for _, rs := range p.col.ReaderStats() {
		dgrams += rs.Datagrams
		batches += rs.Batches
	}
	put("collector.datagrams_per_read", "count", float64(dgrams)/float64(max(batches, 1)))

	put("topk.add_ns_per_record", "ns", perItem("topk.add"))
	put("recordstore.write_ns_per_record", "ns", perItem("recordstore.write"))
	put("recordstore.compact_stall_ms.max", "ms", float64(b.maxStall)/1e6)
	put("recordstore.compactions", "count", float64(b.compacts))
	_, sinks, _ := p.snapshot()
	var records, alerts int
	for _, sk := range sinks {
		records += sk.records
		alerts += sk.alerts
	}
	put("recordstore.hot_bytes_per_record", "B", float64(p.storeM.BytesWritten.Value())/float64(max(records, 1)))
	put("detect.observe_ns_per_record", "ns", perItem("detect.observe"))
	put("detect.alerts", "count", float64(alerts))

	var byKind [numReqKinds][]float64
	errs := 0
	for _, q := range b.samples {
		byKind[q.kind] = append(byKind[q.kind], q.ms())
		if !q.ok {
			errs++
		}
	}
	for k, name := range reqNames {
		put("query."+name+"_ms.p50", "ms", pct(log, "query."+name+"_ms", byKind[k], 0.5))
		put("query."+name+"_ms.p90", "ms", pct(log, "query."+name+"_ms", byKind[k], 0.9))
	}
	put("query.errors", "count", float64(errs))

	m0, m1 := b.mem[0], b.mem[1]
	put("runtime.alloc_bytes_per_pkt", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.pkts))
	put("runtime.gc_pause_ms", "ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	put("runtime.gc_cycles", "count", float64(m1.NumGC-m0.NumGC))

	genLag := 0.0
	if len(b.lag) > 0 {
		genLag = slices.Max(b.lag)
	}
	put("bench.generator_lag_ms.max", "ms", genLag)
	// Overhead is measured on the rate the workload is about: packets on
	// the closed-loop workloads, requests on the query workload.
	rate := func(ph phase) float64 { return ph.rate }
	if s.period > 0 {
		rate = func(ph phase) float64 { return queryRate(ph.samples) }
	}
	overhead := 0.0 // a phase without a rate failed its checks already
	if ra, rb := rate(a), rate(b); ra > 0 && rb > 0 {
		overhead = (ra/rb - 1) * 100
	}
	put("bench.trace_overhead_pct", "%", overhead)
}

// pct returns the nearest-rank q-quantile of xs. It warns when fewer than
// ten samples lie beyond it, which the workload sizes are chosen to
// prevent.
func pct(log io.Writer, name string, xs []float64, q float64) float64 {
	if len(xs) == 0 {
		fmt.Fprintf(log, "perfbench: warning: %s has no samples\n", name)
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	if beyond := len(s) - 1 - i; beyond < 10 {
		fmt.Fprintf(log, "perfbench: warning: %s p%g has only %d of %d samples beyond it\n", name, q*100, beyond, len(s))
	}
	return s[i]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSS reads the process's peak resident set size in MB.
func peakRSS() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/flow"
	"repro/metrics"
	"repro/recordstore"
)

// checks counts the output checks of a run: every exported epoch, every
// request and every whole-run invariant is one attempted operation.
type checks struct {
	attempted, failed int
	notes             []string
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// verify runs the output checks on a closed pipeline. The store is
// reopened read-only: every live epoch must equal, as a multiset of
// (key, count), the epoch the drain exported.
func verify(c *checks, p *pipeline, samples []sample) error {
	eps, sinks, _ := p.snapshot()
	src, err := recordstore.Open(p.dir)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	defer src.Close()
	var (
		buf    []flow.Record
		stored uint64
	)
	for k, l := range eps {
		idx := p.prepop + k
		if idx >= src.Epochs() {
			c.expect(false, "epoch %d: not in the store", k)
			continue
		}
		ep, err := src.AppendEpochAt(idx, buf[:0])
		if err != nil {
			c.expect(false, "epoch %d: decode: %v", k, err)
			continue
		}
		buf = ep.Records
		stored += uint64(len(ep.Records))
		c.expect(len(ep.Records) == l.records && digest(ep.Records) == l.digest,
			"epoch %d: stored %d records, exported %d, or their keys and counts differ", k, len(ep.Records), l.records)
	}
	c.expect(src.Epochs() == p.prepop+len(eps), "store holds %d epochs, want %d", src.Epochs(), p.prepop+len(eps))
	c.expect(stored == p.ee.Exported(), "store holds %d records, exporter exported %d", stored, p.ee.Exported())
	c.expect(len(sinks) == len(eps), "collector delivered %d epochs for %d exported: the quiet gap split or merged epochs", len(sinks), len(eps))
	st := p.col.Stats()
	c.expect(st.Lost == 0 && st.BadData == 0, "collector counted %d lost records and %d bad datagrams", st.Lost, st.BadData)
	c.expect(p.waitTimeout == 0, "%d epochs never became queryable", p.waitTimeout)
	c.expect(p.exportErr == nil, "export: %v", p.exportErr)
	c.expect(p.compactErr == nil, "compaction: %v", p.compactErr)
	if err := crossCheck(c, p, eps, sinks); err != nil {
		return err
	}
	bad := 0
	for _, s := range samples {
		c.attempted++
		if !s.ok {
			c.failed++
			bad++
		}
	}
	if bad > 0 {
		c.notes = append(c.notes, fmt.Sprintf("%d requests failed or returned an unexpected body", bad))
	}
	return nil
}

// crossCheck asserts that the production instruments in the registry
// count exactly the epochs, records and datagrams the benchmark saw.
func crossCheck(c *checks, p *pipeline, eps []epochLog, sinks []sinkLog) error {
	var buf bytes.Buffer
	if err := p.reg.WriteJSON(&buf); err != nil {
		return err
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		return fmt.Errorf("registry JSON: %w", err)
	}
	value := func(name string) uint64 {
		var v struct {
			Count uint64 `json:"count"`
		}
		raw := m[name]
		if json.Unmarshal(raw, &v) == nil && v.Count > 0 {
			return v.Count // histogram
		}
		var n uint64
		_ = json.Unmarshal(raw, &n) // absent or non-numeric reads as 0 and fails below
		return n
	}
	var records uint64
	for _, s := range sinks {
		records += uint64(s.records)
	}
	for _, w := range []struct {
		name string
		want uint64
	}{
		{"adaptive_epochs_total", uint64(len(eps))},
		{"collector_epochs_total", uint64(len(sinks))},
		{"collector_epoch_records", uint64(len(sinks))},
		{"collector_records_total", p.ee.Exported()},
		{"collector_records_total", records},
		{"collector_datagrams_total", p.datagrams.Load()},
		{"store_epochs_written_total", uint64(len(sinks))},
		{"detect_observe_ns", uint64(len(sinks))},
	} {
		got := value(w.name)
		c.expect(got == w.want, "registry %s = %d, benchmark counted %d", w.name, got, w.want)
	}
	return nil
}

// accuracy scores the stored live epochs 0..len(inputs)-1, one per
// input, against their exact truth and returns the means: flow set
// coverage, size ARE, and heavy-hitter F1 at threshold hh. The size
// error is summed in key order so that equal inputs give bit-identical
// results; metrics.SizeARE, whose order follows map iteration, must
// agree with it to rounding.
func accuracy(c *checks, p *pipeline, inputs []*epochInput, hh uint32) (fsc, are, f1 float64, err error) {
	src, err := recordstore.Open(p.dir)
	if err != nil {
		return 0, 0, 0, err
	}
	defer src.Close()
	n := len(inputs)
	if src.Epochs() < p.prepop+n {
		return 0, 0, 0, fmt.Errorf("store holds %d live epochs, accuracy needs %d", src.Epochs()-p.prepop, n)
	}
	for j, in := range inputs {
		ep, err := src.AppendEpochAt(p.prepop+j, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		est := make(map[flow.Key]uint32, len(ep.Records))
		for _, r := range ep.Records {
			est[r.Key] = r.Count
		}
		estimate := func(k flow.Key) uint32 { return est[k] }
		a := sizeARE(estimate, in.truth)
		ref := metrics.SizeARE(estimate, in.truth)
		c.expect(math.Abs(a-ref) <= 1e-9*math.Max(1, ref), "epoch %d: size ARE %v disagrees with metrics.SizeARE %v", j, a, ref)
		fsc += metrics.FSC(ep.Records, in.truth)
		are += a
		f1 += metrics.HeavyHitters(ep.Records, in.truth, hh).F1
	}
	return fsc / float64(n), are / float64(n), f1 / float64(n), nil
}

// sizeARE is metrics.SizeARE with the sum taken in key order.
func sizeARE(estimate func(flow.Key) uint32, truth *flow.Truth) float64 {
	recs := truth.Records()
	if len(recs) == 0 {
		return 0
	}
	slices.SortFunc(recs, func(a, b flow.Record) int { return flow.CompareKeys(a.Key, b.Key) })
	var sum float64
	for _, r := range recs {
		sum += math.Abs(float64(estimate(r.Key))/float64(r.Count) - 1)
	}
	return sum / float64(len(recs))
}

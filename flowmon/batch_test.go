package flowmon_test

import (
	"bytes"
	"sort"
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/trace"
)

// batchCfg keeps the recorders small enough that every algorithm is pushed
// into its collision/eviction paths by the test trace.
var batchCfg = flowmon.Config{MemoryBytes: 64 << 10, Seed: 42, SampleRate: 10}

func sortRecords(recs []flow.Record) {
	sort.Slice(recs, func(i, j int) bool {
		a := recs[i].Key.AppendBytes(nil)
		b := recs[j].Key.AppendBytes(nil)
		if c := bytes.Compare(a, b); c != 0 {
			return c < 0
		}
		return recs[i].Count < recs[j].Count
	})
}

// feedBatches replays pkts through UpdateBatch in deliberately awkward
// batch shapes: empty, single-packet, small, and large batches.
func feedBatches(rec flowmon.Recorder, pkts []flow.Packet) {
	sizes := []int{0, 1, 3, 17, 256, 1024}
	i, s := 0, 0
	for i < len(pkts) {
		n := sizes[s%len(sizes)]
		s++
		if n > len(pkts)-i {
			n = len(pkts) - i
		}
		rec.UpdateBatch(pkts[i : i+n])
		i += n
	}
}

// TestBatchSequentialEquivalence is the core batching contract: for every
// algorithm, UpdateBatch must leave the recorder in a state byte-identical
// to per-packet Update on the same packet sequence — same records, same
// size estimates, same cardinality estimate, same operation counts.
func TestBatchSequentialEquivalence(t *testing.T) {
	tr, err := trace.Generate(trace.Campus, 8000, 7)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(7)
	truth := tr.Truth()

	algos := append(flowmon.All(), flowmon.Extras()...)
	for _, a := range algos {
		t.Run(a.String(), func(t *testing.T) {
			seq, err := flowmon.New(a, batchCfg)
			if err != nil {
				t.Fatal(err)
			}
			bat, err := flowmon.New(a, batchCfg)
			if err != nil {
				t.Fatal(err)
			}

			for _, p := range pkts {
				seq.Update(p)
			}
			feedBatches(bat, pkts)

			if s, b := seq.OpStats(), bat.OpStats(); s != b {
				t.Errorf("OpStats diverge: sequential %+v, batched %+v", s, b)
			}
			if s, b := seq.EstimateCardinality(), bat.EstimateCardinality(); s != b {
				t.Errorf("EstimateCardinality diverges: sequential %v, batched %v", s, b)
			}
			if s, b := seq.MemoryBytes(), bat.MemoryBytes(); s != b {
				t.Errorf("MemoryBytes diverges: sequential %d, batched %d", s, b)
			}

			sr, br := seq.Records(), bat.Records()
			sortRecords(sr)
			sortRecords(br)
			if len(sr) != len(br) {
				t.Fatalf("record counts diverge: sequential %d, batched %d", len(sr), len(br))
			}
			for i := range sr {
				if sr[i] != br[i] {
					t.Fatalf("record %d diverges: sequential %+v, batched %+v", i, sr[i], br[i])
				}
			}

			for _, rec := range truth.Records() {
				if s, b := seq.EstimateSize(rec.Key), bat.EstimateSize(rec.Key); s != b {
					t.Fatalf("EstimateSize(%v) diverges: sequential %d, batched %d", rec.Key, s, b)
				}
			}
		})
	}
}

// TestBatchAfterReset ensures the batched path composes with Reset: a
// reset recorder refilled by batches matches a fresh sequential one.
func TestBatchAfterReset(t *testing.T) {
	tr, err := trace.Generate(trace.ISP2, 2000, 13)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(13)

	for _, a := range append(flowmon.All(), flowmon.Extras()...) {
		rec, err := flowmon.New(a, batchCfg)
		if err != nil {
			t.Fatal(err)
		}
		rec.UpdateBatch(pkts)
		rec.Reset()
		rec.UpdateBatch(pkts)

		// The sequential reference walks the same lifecycle (fill, reset,
		// refill) so stateful extras — the sampler's RNG survives Reset —
		// consume their randomness in the same order.
		seq, err := flowmon.New(a, batchCfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkts {
			seq.Update(p)
		}
		seq.Reset()
		for _, p := range pkts {
			seq.Update(p)
		}
		if r, f := rec.EstimateCardinality(), seq.EstimateCardinality(); r != f {
			t.Errorf("%v: cardinality batched %v, sequential %v", a, r, f)
		}
	}
}

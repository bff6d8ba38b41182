// Package repro's root benchmark suite regenerates a reduced-scale version
// of every table and figure in the paper's evaluation (full scale is
// cmd/flowbench). Figure-level metrics are attached to the benchmark output
// via b.ReportMetric, so `go test -bench=.` doubles as a results summary.
package repro

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"testing"
	"time"

	"repro/adaptive"
	"repro/collector"
	"repro/experiments"
	"repro/flow"
	"repro/flowmon"
	"repro/metrics"
	"repro/model"
	"repro/recordstore"
	"repro/shard"
	"repro/switchsim"
	"repro/trace"
)

// Reduced-scale defaults: ~10x smaller than the paper so the whole bench
// suite completes in minutes.
const (
	benchMemory = 128 << 10
	benchFlows  = 25000
	benchSeed   = 1
)

func benchTrace(b *testing.B, p trace.Profile, flows int) ([]flow.Packet, *flow.Truth) {
	b.Helper()
	tr, err := trace.Generate(p, flows, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return tr.Packets(benchSeed), tr.Truth()
}

// BenchmarkUpdate measures raw per-packet update cost of each algorithm —
// the real-throughput half of Fig. 11a.
func BenchmarkUpdate(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	for _, a := range flowmon.All() {
		b.Run(a.String(), func(b *testing.B) {
			rec, err := flowmon.New(a, flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec.Update(pkts[i%len(pkts)])
			}
		})
	}
}

// shardCounts is the sweep shared by the sharded ingestion benchmarks, so
// the sequential/batched/async speedup is directly comparable per shard
// count in the perf trajectory.
var shardCounts = []int{1, 4, 8}

// shardBatchSize is the ingestion batch size of the batched benchmarks.
const shardBatchSize = 256

// BenchmarkShardedSequential measures the pre-batching hot path: one mutex
// acquisition per packet. The baseline the batched pipeline is judged
// against.
func BenchmarkShardedSequential(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, err := shard.NewUniform(n, flowmon.AlgorithmHashFlow,
				flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Update(pkts[i%len(pkts)])
			}
		})
	}
}

// BenchmarkShardedBatch measures the batched pipeline: route a batch into
// per-shard staging buffers, then one lock acquisition per shard per batch.
func BenchmarkShardedBatch(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, err := shard.NewUniform(n, flowmon.AlgorithmHashFlow,
				flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			off := 0
			for i := 0; i < b.N; i += shardBatchSize {
				m := shardBatchSize
				if b.N-i < m {
					m = b.N - i
				}
				if off+m > len(pkts) {
					off = 0
				}
				s.UpdateBatch(pkts[off : off+m])
				off += m
			}
		})
	}
}

// BenchmarkShardedAsync measures the asynchronous pipeline: the feeder only
// routes and enqueues; per-shard workers record in parallel. Flush closes
// the timing window so queued work is charged to the benchmark.
func BenchmarkShardedAsync(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, err := shard.NewUniformAsync(n, 0, flowmon.AlgorithmHashFlow,
				flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			b.ReportAllocs()
			b.ResetTimer()
			off := 0
			for i := 0; i < b.N; i += shardBatchSize {
				m := shardBatchSize
				if b.N-i < m {
					m = b.N - i
				}
				if off+m > len(pkts) {
					off = 0
				}
				s.UpdateBatch(pkts[off : off+m])
				off += m
			}
			s.Flush()
		})
	}
}

// BenchmarkIngestPipeline measures the full end-to-end path the collector
// exposes: Ingestor batching feeding a sharded recorder.
func BenchmarkIngestPipeline(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			s, err := shard.NewUniform(n, flowmon.AlgorithmHashFlow,
				flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			g, err := collector.NewIngestor(s, shardBatchSize)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Add(pkts[i%len(pkts)])
			}
			g.Flush()
		})
	}
}

// BenchmarkAppendRecords measures steady-state epoch record extraction —
// AppendRecords into a reused buffer — for every paper algorithm and for
// the sharded recorder across shard counts (parallel per-shard drain plus
// deterministic key sort).
func BenchmarkAppendRecords(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	bench := func(b *testing.B, rec flowmon.Recorder) {
		b.Helper()
		if err := collector.Replay(rec, pkts, shardBatchSize); err != nil {
			b.Fatal(err)
		}
		var buf []flow.Record
		buf = rec.AppendRecords(buf[:0])
		b.ReportMetric(float64(len(buf)), "records")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = rec.AppendRecords(buf[:0])
		}
	}
	for _, a := range flowmon.All() {
		b.Run(a.String(), func(b *testing.B) {
			rec, err := flowmon.New(a, flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			bench(b, rec)
		})
	}
	for _, n := range shardCounts {
		b.Run(fmt.Sprintf("Sharded/shards=%d", n), func(b *testing.B) {
			s, err := shard.NewUniform(n, flowmon.AlgorithmHashFlow,
				flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(s.Close)
			bench(b, s)
		})
	}
}

// BenchmarkEpochRotation measures continuous ingestion under adaptive
// epoch control with the flush path (extract + recordstore encode) either
// inline on the hot path (single) or on the double-buffered background
// worker (double), fed one packet at a time through Update or in
// 4096-packet batches through UpdateBatch (-batch). The metric is
// per-packet cost including rotations.
func BenchmarkEpochRotation(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	const batch = 4096
	for _, mode := range []struct {
		name          string
		double, batch bool
	}{
		{"single", false, false},
		{"double", true, false},
		{"single-batch", false, true},
		{"double-batch", true, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			store := recordstore.NewWriter(io.Discard)
			var werr error
			flushFn := func(_ int, recs []flow.Record) {
				if err := store.WriteEpoch(time.Unix(0, 0), recs); err != nil {
					werr = err
				}
			}
			active, err := flowmon.NewHashFlow(flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
			if err != nil {
				b.Fatal(err)
			}
			acfg := adaptive.Config{Capacity: active.MainCells(), MaxEpochPackets: 8192}
			var m *adaptive.Manager
			if !mode.double {
				m, err = adaptive.NewManager(active, acfg, flushFn)
			} else {
				standby, err2 := flowmon.NewHashFlow(flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
				if err2 != nil {
					b.Fatal(err2)
				}
				m, err = adaptive.NewDoubleBuffered(active, standby, acfg, flushFn)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if mode.batch {
				off := 0
				for done := 0; done < b.N; {
					n := min(batch, b.N-done)
					if off+n > len(pkts) {
						off = 0
					}
					m.UpdateBatch(pkts[off : off+n])
					off += n
					done += n
				}
			} else {
				for i := 0; i < b.N; i++ {
					m.Update(pkts[i%len(pkts)])
				}
			}
			b.StopTimer()
			m.Flush()
			m.Close()
			if werr != nil {
				b.Fatal(werr)
			}
		})
	}
}

// seedEncodeEpoch reproduces the seed's WriteEpoch hot path — reflection
// sort.Slice over flow.Records plus the varint delta encode — as the
// baseline BenchmarkRecordstoreWrite compares the concrete-type radix
// writer against.
func seedEncodeEpoch(bw *bufio.Writer, scratch, records []flow.Record, buf []byte) ([]flow.Record, []byte, error) {
	scratch = append(scratch[:0], records...)
	sort.Slice(scratch, func(i, j int) bool {
		a1, a2 := scratch[i].Key.Words()
		b1, b2 := scratch[j].Key.Words()
		if a1 != b1 {
			return a1 < b1
		}
		return a2 < b2
	})
	buf = buf[:0]
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(len(scratch)))
	var prev1, prev2 uint64
	for _, r := range scratch {
		w1, w2 := r.Key.Words()
		buf = binary.AppendUvarint(buf, w1-prev1)
		buf = binary.AppendUvarint(buf, w2^prev2)
		buf = binary.AppendUvarint(buf, uint64(r.Count))
		prev1, prev2 = w1, w2
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(buf)))
	if _, err := bw.Write(lenBuf[:n]); err != nil {
		return scratch, buf, err
	}
	_, err := bw.Write(buf)
	return scratch, buf, err
}

// BenchmarkRecordstoreWrite compares epoch encoding implementations at
// several epoch sizes: the seed's reflection-based sort.Slice encoder
// against the concrete-type radix/typed-sort Writer.
func BenchmarkRecordstoreWrite(b *testing.B) {
	pkts, truth := benchTrace(b, trace.CAIDA, benchFlows)
	_ = pkts
	all := truth.Records()
	for _, n := range []int{100, 1000, 10000, len(all)} {
		if n > len(all) {
			continue
		}
		records := all[:n]
		b.Run(fmt.Sprintf("impl=seed-sortslice/records=%d", n), func(b *testing.B) {
			bw := bufio.NewWriter(io.Discard)
			var scratch []flow.Record
			var buf []byte
			var err error
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				scratch, buf, err = seedEncodeEpoch(bw, scratch, records, buf)
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("impl=radix/records=%d", n), func(b *testing.B) {
			w := recordstore.NewWriter(io.Discard)
			ts := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.WriteEpoch(ts, records); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1Traces regenerates Table I's statistics.
func BenchmarkTable1Traces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Table1Rows(benchFlows, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("expected 4 traces, got %d", len(rows))
		}
	}
}

// BenchmarkFig2Utilization runs the model-vs-simulation comparison behind
// Fig. 2a-2c and reports the worst model deviation at m/n >= 2 (the regime
// where the paper calls the model nearly perfect).
func BenchmarkFig2Utilization(b *testing.B) {
	const n = 20000
	var worst float64
	for i := 0; i < b.N; i++ {
		worst = 0
		for _, load := range []float64{2, 3, 4} {
			for d := 1; d <= 10; d++ {
				dev := model.MultiHashUtilization(load, d) -
					model.SimulateMultiHash(n, int(load*n), d, benchSeed)
				if dev < 0 {
					dev = -dev
				}
				if dev > worst {
					worst = dev
				}
			}
		}
	}
	b.ReportMetric(worst, "worst_model_dev")
}

// BenchmarkFig3CDF regenerates the flow-size CDFs.
func BenchmarkFig3CDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, rows, err := experiments.Fig3Rows(benchFlows, benchSeed, 100)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

// BenchmarkFig4Depth regenerates Fig. 4 (ARE vs main-table depth). The
// paper runs 50K flows against a ~55K-cell table (load ~0.9), where depth
// matters most; we scale both down 8x. The paper's shape is a ~3x ARE
// reduction from d=1 to d=3.
func BenchmarkFig4Depth(b *testing.B) {
	// 128 KB → 6898 main cells; 6500 flows ≈ load 0.94.
	pkts, truth := benchTrace(b, trace.Campus, 6500)
	var are1, are3 float64
	for i := 0; i < b.N; i++ {
		for _, d := range []int{1, 3} {
			rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
				flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed, Depth: d})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pkts {
				rec.Update(p)
			}
			are := metrics.SizeARE(rec.EstimateSize, truth)
			if d == 1 {
				are1 = are
			} else {
				are3 = are
			}
		}
	}
	b.ReportMetric(are1, "ARE_d1")
	b.ReportMetric(are3, "ARE_d3")
}

// BenchmarkFig5MainTable regenerates Fig. 5's multi-hash vs pipelined
// ablation and reports the FSC of both organizations at load ~1.1, the
// regime where Fig. 5 shows the pipelined layout's ~3% FSC edge (under
// saturation the two converge).
func BenchmarkFig5MainTable(b *testing.B) {
	pkts, truth := benchTrace(b, trace.Campus, 7600)
	var fscMulti, fscPipe float64
	for i := 0; i < b.N; i++ {
		for _, multihash := range []bool{true, false} {
			rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{
				MemoryBytes: benchMemory, Seed: benchSeed, Multihash: multihash, Alpha: 0.7,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range pkts {
				rec.Update(p)
			}
			if multihash {
				fscMulti = metrics.FSC(rec.Records(), truth)
			} else {
				fscPipe = metrics.FSC(rec.Records(), truth)
			}
		}
	}
	b.ReportMetric(fscMulti, "FSC_multihash")
	b.ReportMetric(fscPipe, "FSC_pipelined")
}

// benchAppMetric shares the Figs. 6-8 harness: one trace, all algorithms,
// reporting the selected metric per algorithm.
func benchAppMetric(b *testing.B, metric string) {
	ms := []experiments.AppMetrics{}
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiments.AppPerformance(trace.Campus, []int{benchFlows}, benchMemory, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range ms {
		switch metric {
		case "FSC":
			b.ReportMetric(m.FSC, "FSC_"+m.Algorithm)
		case "RE":
			b.ReportMetric(m.CardinalityRE, "RE_"+m.Algorithm)
		case "ARE":
			b.ReportMetric(m.SizeARE, "ARE_"+m.Algorithm)
		}
	}
}

// BenchmarkFig6FSC regenerates the flow record report experiment.
func BenchmarkFig6FSC(b *testing.B) { benchAppMetric(b, "FSC") }

// BenchmarkFig7Cardinality regenerates the cardinality estimation experiment.
func BenchmarkFig7Cardinality(b *testing.B) { benchAppMetric(b, "RE") }

// BenchmarkFig8SizeARE regenerates the flow size estimation experiment.
func BenchmarkFig8SizeARE(b *testing.B) { benchAppMetric(b, "ARE") }

// BenchmarkFig9HeavyHitterF1 regenerates the heavy-hitter detection sweep
// and reports each algorithm's F1 at a mid-range threshold.
func BenchmarkFig9HeavyHitterF1(b *testing.B) {
	var ms []experiments.HHMetrics
	for i := 0; i < b.N; i++ {
		var err error
		ms, err = experiments.HeavyHitterSweep(trace.Campus, benchFlows, benchMemory,
			[]uint32{50}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range ms {
		b.ReportMetric(m.F1, "F1_"+m.Algorithm)
		b.ReportMetric(m.SizeARE, "hhARE_"+m.Algorithm)
	}
}

// BenchmarkFig11Throughput regenerates the switch cost experiment and
// reports modeled Kpps per algorithm.
func BenchmarkFig11Throughput(b *testing.B) {
	pkts, _ := benchTrace(b, trace.CAIDA, benchFlows)
	cost := switchsim.DefaultCostModel()
	for _, a := range flowmon.All() {
		b.Run(a.String(), func(b *testing.B) {
			var res switchsim.Result
			for i := 0; i < b.N; i++ {
				rec, err := flowmon.New(a, flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
				if err != nil {
					b.Fatal(err)
				}
				res, err = switchsim.Run(rec, pkts, cost)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.ModeledKpps, "modeled_Kpps")
			b.ReportMetric(res.Ops.HashesPerPacket(), "hashes/pkt")
			b.ReportMetric(res.Ops.MemAccessesPerPacket(), "mem/pkt")
		})
	}
}

// BenchmarkAblationDigestWidth varies the ancillary-table digest width.
// Narrower digests save no memory in this layout (cells stay 2 bytes) but
// raise the digest-collision rate, inflating promoted counts.
func BenchmarkAblationDigestWidth(b *testing.B) {
	pkts, truth := benchTrace(b, trace.Campus, benchFlows)
	for _, bits := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			var are float64
			for i := 0; i < b.N; i++ {
				rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{
					MemoryBytes: benchMemory, Seed: benchSeed, DigestBits: bits,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pkts {
					rec.Update(p)
				}
				are = metrics.SizeARE(rec.EstimateSize, truth)
			}
			b.ReportMetric(are, "ARE")
		})
	}
}

// BenchmarkExtensionComparators runs the two beyond-paper comparators
// (sampled NetFlow, bucketized cuckoo) on the Fig. 6/8 workload next to
// HashFlow, reporting FSC and ARE for each.
func BenchmarkExtensionComparators(b *testing.B) {
	pkts, truth := benchTrace(b, trace.CAIDA, benchFlows)
	algos := append([]flowmon.Algorithm{flowmon.AlgorithmHashFlow}, flowmon.Extras()...)
	for _, a := range algos {
		b.Run(a.String(), func(b *testing.B) {
			var fsc, are float64
			for i := 0; i < b.N; i++ {
				rec, err := flowmon.New(a, flowmon.Config{
					MemoryBytes: benchMemory, Seed: benchSeed, SampleRate: 100,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pkts {
					rec.Update(p)
				}
				fsc = metrics.FSC(rec.Records(), truth)
				are = metrics.SizeARE(rec.EstimateSize, truth)
			}
			b.ReportMetric(fsc, "FSC")
			b.ReportMetric(are, "ARE")
		})
	}
}

// BenchmarkAblationPromotion compares record promotion on vs off: without
// promotion, elephants that lose the initial collision race stay stranded
// in the ancillary table and heavy-hitter recall drops.
func BenchmarkAblationPromotion(b *testing.B) {
	pkts, truth := benchTrace(b, trace.Campus, benchFlows)
	for _, disabled := range []bool{false, true} {
		name := "on"
		if disabled {
			name = "off"
		}
		b.Run("promotion="+name, func(b *testing.B) {
			var recall float64
			for i := 0; i < b.N; i++ {
				rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{
					MemoryBytes: benchMemory, Seed: benchSeed, DisablePromotion: disabled,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pkts {
					rec.Update(p)
				}
				recall = metrics.HeavyHitters(rec.Records(), truth, 50).Recall
			}
			b.ReportMetric(recall, "hh_recall")
		})
	}
}

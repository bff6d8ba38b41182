package repro

import (
	"io"
	"runtime"
	"testing"
	"time"

	"repro/adaptive"
	"repro/collector"
	"repro/flow"
	"repro/flowmon"
	"repro/netwide"
	"repro/recordstore"
	"repro/shard"
	"repro/telemetry"
	"repro/topk"
	"repro/trace"
)

// The zero-allocation contract of the export path: once the reusable
// buffers have grown to epoch size, extracting records, encoding epochs
// and merging sorted views must not allocate. These are regression tests —
// a single stray allocation per epoch at line rate is a GC pause waiting
// to happen.

// fillRecorder replays a generated trace into rec through the batched path.
func fillRecorder(t testing.TB, rec flowmon.Recorder, flows int) {
	t.Helper()
	tr, err := trace.Generate(trace.CAIDA, flows, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	if err := collector.Replay(rec, tr.Packets(benchSeed), collector.DefaultBatchSize); err != nil {
		t.Fatal(err)
	}
}

func TestAppendRecordsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	t.Run("HashFlow", func(t *testing.T) {
		rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		fillRecorder(t, rec, benchFlows)
		var buf []flow.Record
		buf = rec.AppendRecords(buf[:0])
		if len(buf) == 0 {
			t.Fatal("no records extracted")
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = rec.AppendRecords(buf[:0])
		}); allocs != 0 {
			t.Errorf("HashFlow AppendRecords allocates %.0f times per epoch, want 0", allocs)
		}
	})

	t.Run("Sharded", func(t *testing.T) {
		s, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fillRecorder(t, s, benchFlows)
		var buf []flow.Record
		buf = s.AppendRecords(buf[:0])
		if len(buf) == 0 {
			t.Fatal("no records extracted")
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = s.AppendRecords(buf[:0])
		}); allocs != 0 {
			t.Errorf("Sharded AppendRecords allocates %.0f times per epoch, want 0", allocs)
		}
	})
}

// TestEpochExportAllocFree covers the full steady-state epoch export —
// AppendRecords into a reused buffer, WriteEpoch sorting and encoding with
// writer-owned scratch — for both the plain and the sharded recorder.
func TestEpochExportAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	recs := map[string]flowmon.Recorder{}

	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	recs["HashFlow"] = rec

	s, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs["Sharded"] = s

	for name, rec := range recs {
		t.Run(name, func(t *testing.T) {
			fillRecorder(t, rec, benchFlows)
			w := recordstore.NewWriter(io.Discard)
			ts := time.Unix(42, 0)
			var buf []flow.Record
			var werr error
			export := func() {
				buf = rec.AppendRecords(buf[:0])
				werr = w.WriteEpoch(ts, buf)
			}
			export() // warm the reusable buffers
			if werr != nil {
				t.Fatal(werr)
			}
			if len(buf) < 1000 {
				t.Fatalf("only %d records, too few to exercise the radix path", len(buf))
			}
			if allocs := testing.AllocsPerRun(50, export); allocs != 0 {
				t.Errorf("epoch export allocates %.0f times per epoch, want 0", allocs)
			}
			if werr != nil {
				t.Fatal(werr)
			}
		})
	}
}

// TestMergeSortedAllocFree pins the zero-allocation contract of the k-way
// merge over key-sorted views with a reused destination buffer.
func TestMergeSortedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	mk := func(seed uint64) []flow.Record {
		rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fillRecorder(t, rec, benchFlows)
		out := rec.Records()
		flow.SortByKey(out)
		return out
	}
	views := []netwide.View{
		{Name: "sw1", Records: mk(1)},
		{Name: "sw2", Records: mk(2)},
		{Name: "sw3", Records: mk(3)},
	}
	var dst []flow.Record
	dst = netwide.MergeSumInto(dst[:0], views...)
	if len(dst) == 0 {
		t.Fatal("empty merge")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dst = netwide.MergeSumInto(dst[:0], views...)
	}); allocs != 0 {
		t.Errorf("MergeSumInto allocates %.0f times per merge, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dst = netwide.MergeMaxInto(dst[:0], views...)
	}); allocs != 0 {
		t.Errorf("MergeMaxInto allocates %.0f times per merge, want 0", allocs)
	}
}

// TestSortByKeyAllocFree pins the shared sort behind the store writer,
// shard export and detector: once its pooled scratch has grown to epoch
// size, both sorts are allocation-free.
func TestSortByKeyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	recs := rec.Records()
	if len(recs) < 1000 {
		t.Fatalf("only %d records, too few to exercise the radix path", len(recs))
	}
	buf := make([]flow.Record, len(recs))
	sortEpoch := func() {
		copy(buf, recs)
		flow.SortByKey(buf)
		flow.SortByDst(buf)
	}
	sortEpoch()
	if allocs := testing.AllocsPerRun(50, sortEpoch); allocs != 0 {
		t.Errorf("SortByKey+SortByDst allocate %.0f times per epoch, want 0", allocs)
	}
}

// TestHeavyHittersAppendAllocFree pins the filter-in-place heavy-hitter
// query with a reused destination buffer.
func TestHeavyHittersAppendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	var buf []flow.Record
	buf = flowmon.HeavyHittersAppend(buf[:0], rec, 10)
	if len(buf) == 0 {
		t.Fatal("no heavy hitters")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		buf = flowmon.HeavyHittersAppend(buf[:0], rec, 10)
	}); allocs != 0 {
		t.Errorf("HeavyHittersAppend allocates %.0f times per query, want 0", allocs)
	}
}

// TestReadEpochAppendAllocFree pins allocation-free replay: decoding an
// epoch into a reused buffer must not allocate once the buffer has grown.
func TestReadEpochAppendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()

	const epochs = 256
	var stream writableBuffer
	w := recordstore.NewWriter(&stream)
	for e := 0; e < epochs; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := recordstore.NewReader(&stream)
	var buf []flow.Record
	// Warm: the first read grows the reader's body buffer and dst.
	ep, err := r.ReadEpochAppend(buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	buf = ep.Records
	if len(buf) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(buf), len(records))
	}
	var rerr error
	if allocs := testing.AllocsPerRun(100, func() {
		ep, rerr = r.ReadEpochAppend(buf[:0])
		buf = ep.Records
	}); allocs != 0 {
		t.Errorf("ReadEpochAppend allocates %.0f times per epoch, want 0", allocs)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestAppendTopKAllocFree pins the zero-allocation contract of the live
// query snapshots: AppendTopK and AppendSorted on both a single tracker
// and a per-shard set, with reused destination buffers. The /topk request
// path sits directly on these.
func TestAppendTopKAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	tr, err := trace.Generate(trace.CAIDA, benchFlows, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(benchSeed)

	t.Run("Tracker", func(t *testing.T) {
		tk, err := topk.NewTracker(1024)
		if err != nil {
			t.Fatal(err)
		}
		tk.UpdateBatch(pkts)
		var buf []flow.Record
		buf = tk.AppendTopK(buf[:0], 10)
		if len(buf) != 10 {
			t.Fatalf("warm top-k returned %d records", len(buf))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = tk.AppendTopK(buf[:0], 10)
		}); allocs != 0 {
			t.Errorf("Tracker.AppendTopK allocates %.0f times per query, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = tk.AppendSorted(buf[:0])
		}); allocs != 0 {
			t.Errorf("Tracker.AppendSorted allocates %.0f times per query, want 0", allocs)
		}
	})

	t.Run("Set", func(t *testing.T) {
		set, err := topk.NewSet(4, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range pkts {
			set.Trackers()[i%4].Update(p)
		}
		var buf []flow.Record
		buf = set.AppendTopK(buf[:0], 10)
		if len(buf) != 10 {
			t.Fatalf("warm top-k returned %d records", len(buf))
		}
		if allocs := testing.AllocsPerRun(100, func() {
			buf = set.AppendTopK(buf[:0], 10)
		}); allocs != 0 {
			t.Errorf("Set.AppendTopK allocates %.0f times per query, want 0", allocs)
		}
	})
}

// TestMappedEpochAllocFree pins allocation-free historical reads: random
// epoch access through the mapped store with a reused buffer must not
// allocate once the buffer has grown — the /flows scan loop relies on it.
func TestMappedEpochAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()

	const epochs = 16
	var stream writableBuffer
	w := recordstore.NewWriter(&stream)
	for e := 0; e < epochs; e++ {
		if err := w.WriteEpoch(time.Unix(int64(e), 0), records); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	m, err := recordstore.NewMappedBytes(stream.b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epochs() != epochs {
		t.Fatalf("indexed %d epochs, want %d", m.Epochs(), epochs)
	}
	var buf []flow.Record
	ep, err := m.AppendEpochAt(0, buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	buf = ep.Records
	if len(buf) != len(records) {
		t.Fatalf("decoded %d records, want %d", len(buf), len(records))
	}
	i := 0
	var rerr error
	if allocs := testing.AllocsPerRun(100, func() {
		ep, rerr = m.AppendEpochAt(i%epochs, buf[:0])
		buf = ep.Records
		i++
	}); allocs != 0 {
		t.Errorf("AppendEpochAt allocates %.0f times per epoch, want 0", allocs)
	}
	if rerr != nil {
		t.Fatal(rerr)
	}
}

// TestColdPointReadAllocFree: a filtered cold read on a reused Segment
// with a reused dst reuses the DEFLATE reader and the piece buffer. A
// read served from the segment's one-block cache allocates nothing. A
// read that misses the cache and inflates a piece allocates only the
// overflow link tables compress/flate builds for each dynamic Huffman
// block with codes longer than 9 bits (tens of small slices, no API to
// reuse them); the pin is that this stays well under one DEFLATE window
// (32 KiB), which a reader built per read, or a piece buffer allocated
// per read, would each exceed on its own.
func TestColdPointReadAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: 1 << 20, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	fillRecorder(t, rec, benchFlows)
	records := rec.Records()
	flow.SortByKey(records)

	const epochs = 4
	var stream writableBuffer
	sw := recordstore.NewSegmentWriter(&stream, recordstore.SegmentCold)
	for e := 0; e < epochs; e++ {
		if err := sw.Add(recordstore.SegmentEpoch{Time: time.Unix(int64(e), 0), Records: records}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := recordstore.OpenSegmentBytes(stream.b)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	// The lowest and the highest source address sit in different pieces;
	// alternating them across epochs makes every read inflate.
	filters := []recordstore.Filter{
		{SrcIP: records[0].Key.SrcIP},
		{SrcIP: records[len(records)-1].Key.SrcIP},
	}
	var buf []flow.Record
	var rerr error
	i, step := 0, 1
	read := func() {
		ep, err := seg.AppendEpochMatching(i%epochs, filters[(i/epochs)%2], buf[:0])
		if err != nil {
			rerr = err
		}
		buf = ep.Records
		i += step
	}
	for w := 0; w < 2*epochs; w++ {
		read()
	}

	step = 0 // the same piece again: a cache hit
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("cached AppendEpochMatching allocates %.0f times per read, want 0", allocs)
	}

	step = 1
	i++ // off the cached piece
	const reads = 200
	before := seg.Inflates()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for r := 0; r < reads; r++ {
		read()
	}
	runtime.ReadMemStats(&m1)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(buf) == 0 {
		t.Fatal("filtered read matched nothing")
	}
	if got := seg.Inflates() - before; got != reads {
		t.Fatalf("%d inflates over %d reads, want one per read", got, reads)
	}
	if perRead := (m1.TotalAlloc - m0.TotalAlloc) / reads; perRead >= 32<<10 {
		t.Errorf("inflating AppendEpochMatching allocates %d bytes per read, want < 32 KiB", perRead)
	}
}

// TestTelemetryAllocFree pins the telemetry layer's core promise: the
// instruments themselves never allocate — neither live ones on the
// update path nor the nil receivers every uninstrumented call site
// holds — and a fully instrumented sharded ingest stays exactly as
// allocation-free as a bare one.
func TestTelemetryAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	t.Run("Instruments", func(t *testing.T) {
		var (
			c    telemetry.Counter
			g    telemetry.Gauge
			h    telemetry.Histogram
			nilC *telemetry.Counter
			nilH *telemetry.Histogram
		)
		i := uint64(0)
		if allocs := testing.AllocsPerRun(1000, func() {
			c.Inc()
			c.Add(i)
			g.Set(int64(i))
			g.Add(1)
			h.Observe(i)
			nilC.Inc()
			nilH.Observe(i)
			i++
		}); allocs != 0 {
			t.Errorf("instrument updates allocate %.0f times, want 0", allocs)
		}
	})

	t.Run("InstrumentedIngest", func(t *testing.T) {
		s, err := shard.NewUniform(4, flowmon.AlgorithmHashFlow,
			flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetMetrics(shard.NewMetrics(telemetry.NewRegistry()))
		tr, err := trace.Generate(trace.CAIDA, benchFlows, benchSeed)
		if err != nil {
			t.Fatal(err)
		}
		pkts := tr.Packets(benchSeed)
		batch := pkts[:collector.DefaultBatchSize]
		s.UpdateBatch(batch) // warm the staging pool
		if allocs := testing.AllocsPerRun(100, func() {
			s.UpdateBatch(batch)
		}); allocs != 0 {
			t.Errorf("instrumented UpdateBatch allocates %.0f times per batch, want 0", allocs)
		}
	})
}

// TestManagerUpdateBatchAllocFree pins the batched ingest path through the
// epoch manager: between rotations, splitting a batch at watermark-check
// boundaries and handing the segments to HashFlow must not allocate.
func TestManagerUpdateBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow,
		flowmon.Config{MemoryBytes: benchMemory, Seed: benchSeed})
	if err != nil {
		t.Fatal(err)
	}
	// The watermark is checked every 1000 packets — inside every batch —
	// but the capacity keeps it from ever firing, and the packet budget
	// is out of reach: no rotation in the measured window.
	m, err := adaptive.NewManager(rec, adaptive.Config{
		Capacity:        1 << 30,
		MaxEpochPackets: 1 << 62,
		CheckEvery:      1000,
	}, func(int, []flow.Record) {})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(trace.CAIDA, benchFlows, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(benchSeed)
	const batch = 4096
	off := 0
	feed := func() {
		if off+batch > len(pkts) {
			off = 0
		}
		m.UpdateBatch(pkts[off : off+batch])
		off += batch
	}
	feed()
	if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
		t.Errorf("Manager.UpdateBatch allocates %.0f times per batch, want 0", allocs)
	}
	if m.Epoch() != 0 {
		t.Fatalf("%d rotations in the measured window", m.Epoch())
	}
}

// writableBuffer is a minimal in-memory stream: bytes written are later
// read back. Unlike bytes.Buffer it never shrinks or re-slices on read, so
// reads do not allocate.
type writableBuffer struct {
	b   []byte
	off int
}

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func (w *writableBuffer) Read(p []byte) (int, error) {
	if w.off >= len(w.b) {
		return 0, io.EOF
	}
	n := copy(p, w.b[w.off:])
	w.off += n
	return n, nil
}

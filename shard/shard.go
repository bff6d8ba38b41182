// Package shard provides a concurrency layer over any flowmon.Recorder:
// packets are partitioned across N independent recorder shards by a hash of
// the flow key, each shard guarded by its own mutex. Because a flow always
// lands in the same shard, every per-flow property of the underlying
// algorithm is preserved, while multiple cores can feed packets in
// parallel — the software analogue of a multi-pipeline switch ASIC.
//
// The ingestion hot path is batched: UpdateBatch routes a whole batch into
// per-shard staging buffers and drains each shard's sub-batch under a
// single lock acquisition, so the mutex is taken once per shard per batch
// instead of once per packet. An optional asynchronous mode decouples
// routing from recording entirely: each shard owns a worker goroutine fed
// by a bounded channel of sub-batches, and Flush/Close provide the
// ingestion barrier and orderly teardown.
//
// The extraction path mirrors the ingestion design: AppendRecords drains
// all shards in parallel into per-shard chunk buffers that are reused
// across epochs and concatenates them into the caller's buffer in
// deterministic shard-then-key order, so continuous epoch export neither
// stalls ingestion longer than one shard's drain nor allocates at steady
// state.
package shard

import (
	"fmt"
	"slices"
	"sync"

	"repro/flow"
	"repro/flowmon"
	"repro/internal/hashing"
	"repro/telemetry"
)

// shardSeed salts the routing hash so it is independent of the hash
// families used inside the recorders.
const shardSeed = 0x5ead

// DefaultQueueDepth is the per-shard channel capacity (in sub-batches) of
// the asynchronous mode when the constructor is given a depth <= 0.
const DefaultQueueDepth = 16

// Sidecar observes every packet applied to one shard, alongside the
// shard's recorder — the hook online summaries (topk.Tracker) ride on.
// Calls arrive from the shard's applier (the batch worker in asynchronous
// mode, the feeding goroutine otherwise) while the shard mutex is held, so
// one shard's sidecar never sees concurrent calls; a sidecar queried from
// other goroutines must synchronize internally.
type Sidecar interface {
	// Update observes one packet routed to the shard.
	Update(p flow.Packet)
	// UpdateBatch observes one applied sub-batch.
	UpdateBatch(pkts []flow.Packet)
	// Reset clears the sidecar when the recorder is reset.
	Reset()
}

// Sharded fans packets out over per-shard recorders. It implements
// flowmon.Recorder itself.
type Sharded struct {
	shards []shardSlot

	// sidecars holds one optional observer per shard; nil when unset.
	// Written by SetSidecars before ingestion, read by the appliers.
	sidecars []Sidecar

	// Ingestion instruments, nil unless SetMetrics attached them.
	// Written before ingestion like sidecars; all are nil-safe.
	mBatches       *telemetry.Counter
	mBatchPackets  *telemetry.Histogram
	mEnqueueStalls *telemetry.Counter

	// staging pools per-call routing buffers so concurrent feeders do not
	// contend on one scratch area and steady-state ingestion is
	// allocation-free. chunks recycles the sub-batch buffers whose
	// ownership passed to the async workers.
	staging sync.Pool
	chunks  sync.Pool

	// Asynchronous mode.
	async   bool
	queues  []chan task
	workers sync.WaitGroup
	// stateMu guards closed against concurrent enqueues: enqueuers hold the
	// read side, Close holds the write side while closing the queues.
	stateMu sync.RWMutex
	closed  bool

	// export is the epoch-extraction side: persistent worker goroutines
	// drain the shards in parallel into per-shard chunk buffers that are
	// reused across epochs, so steady-state AppendRecords is allocation-free.
	export exportState
}

// exportState holds the reusable export machinery. The workers are spawned
// lazily on the first multi-shard extraction and torn down by Close; after
// teardown extraction falls back to a sequential in-place drain.
type exportState struct {
	mu      sync.Mutex // serializes extractions and guards the fields below
	bufs    [][]flow.Record
	req     chan int
	done    chan struct{}
	started bool
	stopped bool
	wg      sync.WaitGroup
}

type shardSlot struct {
	mu  sync.Mutex
	rec flowmon.Recorder
	_   [40]byte // pad to keep hot locks on separate cache lines
}

// task is one unit of work on a shard queue: either a sub-batch of packets
// for the shard's recorder, or (when ack is non-nil) a flush barrier that
// the worker acknowledges once every earlier task has been applied.
type task struct {
	pkts []flow.Packet
	ack  chan<- struct{}
}

// stagingBufs is the per-call routing scratch: one packet buffer per shard.
type stagingBufs struct {
	bufs [][]flow.Packet
}

var _ flowmon.Recorder = (*Sharded)(nil)

// New builds n synchronous shards using factory to construct each shard's
// recorder. Give each shard 1/n of the total memory budget to keep
// comparisons fair.
func New(n int, factory func(i int) (flowmon.Recorder, error)) (*Sharded, error) {
	return build(n, false, 0, factory)
}

// NewAsync builds n shards in asynchronous mode: each shard runs a worker
// goroutine consuming sub-batches from a bounded channel of queueDepth
// batches (DefaultQueueDepth if <= 0). UpdateBatch only routes and
// enqueues; recording happens on the workers. Call Flush for an ingestion
// barrier and Close to stop the workers when done.
func NewAsync(n, queueDepth int, factory func(i int) (flowmon.Recorder, error)) (*Sharded, error) {
	return build(n, true, queueDepth, factory)
}

func build(n int, async bool, queueDepth int, factory func(i int) (flowmon.Recorder, error)) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: need at least one shard, got %d", n)
	}
	s := &Sharded{shards: make([]shardSlot, n)}
	s.staging.New = func() any {
		return &stagingBufs{bufs: make([][]flow.Packet, n)}
	}
	for i := range s.shards {
		rec, err := factory(i)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if rec == nil {
			return nil, fmt.Errorf("shard %d: factory returned nil recorder", i)
		}
		s.shards[i].rec = rec
	}
	if async {
		if queueDepth <= 0 {
			queueDepth = DefaultQueueDepth
		}
		s.async = true
		s.queues = make([]chan task, n)
		for i := range s.queues {
			s.queues[i] = make(chan task, queueDepth)
		}
		s.workers.Add(n)
		for i := range s.queues {
			go s.worker(i)
		}
	}
	return s, nil
}

// NewUniform builds n synchronous shards of the same algorithm, splitting
// cfg's memory budget evenly.
func NewUniform(n int, a flowmon.Algorithm, cfg flowmon.Config) (*Sharded, error) {
	return New(n, uniformFactory(n, a, cfg))
}

// NewUniformAsync is NewUniform in asynchronous mode (see NewAsync).
func NewUniformAsync(n, queueDepth int, a flowmon.Algorithm, cfg flowmon.Config) (*Sharded, error) {
	return NewAsync(n, queueDepth, uniformFactory(n, a, cfg))
}

func uniformFactory(n int, a flowmon.Algorithm, cfg flowmon.Config) func(i int) (flowmon.Recorder, error) {
	per := 0
	if n > 0 {
		per = cfg.MemoryBytes / n
	}
	return func(i int) (flowmon.Recorder, error) {
		c := cfg
		c.MemoryBytes = per
		c.Seed = cfg.Seed + uint64(i)*0x9E37
		return flowmon.New(a, c)
	}
}

// SetSidecars registers one sidecar per shard (scs[i] observes shard i),
// or detaches all sidecars when scs is nil. Packets applied to a shard are
// mirrored to its sidecar under the shard mutex. Call before ingestion
// begins: the slice is read without synchronization by the appliers, so
// installing sidecars mid-stream is a data race (enqueue ordering aside,
// the async workers only observe the registration through a task sent
// after it).
func (s *Sharded) SetSidecars(scs []Sidecar) error {
	if scs != nil && len(scs) != len(s.shards) {
		return fmt.Errorf("shard: got %d sidecars for %d shards", len(scs), len(s.shards))
	}
	s.sidecars = scs
	return nil
}

// sidecar returns shard i's observer, or nil.
func (s *Sharded) sidecar(i int) Sidecar {
	if s.sidecars == nil {
		return nil
	}
	return s.sidecars[i]
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.shards) }

// Async reports whether the recorder runs in asynchronous mode.
func (s *Sharded) Async() bool { return s.async }

func (s *Sharded) routeIdx(k flow.Key) int {
	w1, w2 := k.Words()
	return int(hashing.Reduce(hashing.KeyHash(shardSeed, w1, w2), uint64(len(s.shards))))
}

// Update processes one packet, locking only the owning shard. In
// asynchronous mode single-packet updates bypass the queues (the per-shard
// mutex serializes them against the workers); interleave Update with
// in-flight UpdateBatch traffic only if cross-path packet ordering does
// not matter, or call Flush first.
func (s *Sharded) Update(p flow.Packet) {
	i := s.routeIdx(p.Key)
	slot := &s.shards[i]
	slot.mu.Lock()
	slot.rec.Update(p)
	if sc := s.sidecar(i); sc != nil {
		sc.Update(p)
	}
	slot.mu.Unlock()
}

// UpdateBatch routes the batch into per-shard staging buffers and drains
// each shard's sub-batch under one lock acquisition. Packet order within a
// flow is preserved: a flow always routes to the same shard, and its
// packets stay in batch order inside that shard's sub-batch. In
// asynchronous mode the sub-batches are enqueued to the shard workers and
// this call returns without waiting for them to be recorded.
func (s *Sharded) UpdateBatch(pkts []flow.Packet) {
	if len(pkts) == 0 {
		return
	}
	s.mBatches.Inc()
	s.mBatchPackets.Observe(uint64(len(pkts)))
	if len(s.shards) == 1 && !s.async {
		slot := &s.shards[0]
		slot.mu.Lock()
		slot.rec.UpdateBatch(pkts)
		if sc := s.sidecar(0); sc != nil {
			sc.UpdateBatch(pkts)
		}
		slot.mu.Unlock()
		return
	}

	st := s.staging.Get().(*stagingBufs)
	for _, p := range pkts {
		i := s.routeIdx(p.Key)
		buf := st.bufs[i]
		if buf == nil {
			buf = s.chunk()
		}
		st.bufs[i] = append(buf, p)
	}

	if s.async {
		s.stateMu.RLock()
		if !s.closed {
			for i := range st.bufs {
				if len(st.bufs[i]) == 0 {
					continue
				}
				// Ownership of the buffer passes to the worker; the staging
				// slot restarts empty and the worker's buffer is recycled
				// through the pool once recorded.
				select {
				case s.queues[i] <- task{pkts: st.bufs[i]}:
				default:
					// Queue full: the workers are behind. Count the stall,
					// then block as before — backpressure is the contract.
					s.mEnqueueStalls.Inc()
					s.queues[i] <- task{pkts: st.bufs[i]}
				}
				st.bufs[i] = nil
			}
			s.stateMu.RUnlock()
			s.staging.Put(st)
			return
		}
		s.stateMu.RUnlock()
		// Closed: fall through to the synchronous drain below.
	}

	for i := range st.bufs {
		if len(st.bufs[i]) == 0 {
			continue
		}
		slot := &s.shards[i]
		slot.mu.Lock()
		slot.rec.UpdateBatch(st.bufs[i])
		if sc := s.sidecar(i); sc != nil {
			sc.UpdateBatch(st.bufs[i])
		}
		slot.mu.Unlock()
		st.bufs[i] = st.bufs[i][:0]
	}
	s.staging.Put(st)
}

// worker drains one shard's queue, applying each sub-batch under the
// shard's mutex so queries remain safe concurrently.
func (s *Sharded) worker(i int) {
	defer s.workers.Done()
	slot := &s.shards[i]
	for t := range s.queues[i] {
		if t.ack != nil {
			t.ack <- struct{}{}
			continue
		}
		slot.mu.Lock()
		slot.rec.UpdateBatch(t.pkts)
		if sc := s.sidecar(i); sc != nil {
			sc.UpdateBatch(t.pkts)
		}
		slot.mu.Unlock()
		t.pkts = t.pkts[:0]
		s.chunks.Put(&t.pkts)
	}
}

// chunk returns a recycled sub-batch buffer, or nil (append allocates) if
// the pool is empty.
func (s *Sharded) chunk() []flow.Packet {
	if v := s.chunks.Get(); v != nil {
		return (*v.(*[]flow.Packet))[:0]
	}
	return nil
}

// Flush blocks until every sub-batch enqueued before the call has been
// applied to its shard. It is the read barrier of the asynchronous mode;
// in synchronous mode (or after Close) it returns immediately. Batches
// enqueued concurrently with Flush by other goroutines may or may not be
// covered.
func (s *Sharded) Flush() {
	if !s.async {
		return
	}
	s.stateMu.RLock()
	if s.closed {
		s.stateMu.RUnlock()
		return
	}
	// One barrier task per shard; the buffered ack channel keeps workers
	// from blocking on the acknowledgement.
	ack := make(chan struct{}, len(s.queues))
	for i := range s.queues {
		s.queues[i] <- task{ack: ack}
	}
	s.stateMu.RUnlock()
	for range s.queues {
		<-ack
	}
}

// Close flushes outstanding batches and stops the shard workers, both the
// asynchronous ingestion workers and any export workers spawned by
// AppendRecords. The recorder remains fully usable afterwards: further
// updates take the synchronous locked path and further extractions drain
// the shards sequentially. Close is idempotent.
func (s *Sharded) Close() {
	s.export.mu.Lock()
	if s.export.started && !s.export.stopped {
		close(s.export.req)
	}
	s.export.stopped = true
	s.export.mu.Unlock()
	s.export.wg.Wait()

	if !s.async {
		return
	}
	s.Flush()
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		return
	}
	s.closed = true
	for i := range s.queues {
		close(s.queues[i])
	}
	s.stateMu.Unlock()
	s.workers.Wait()
}

// feedBatchSize bounds the batches FeedParallel pushes through the staged
// path, so replaying a large trace stages at most workers*feedBatchSize
// packets at a time instead of copying the whole stream into per-shard
// buffers (which the pools would then retain).
const feedBatchSize = 1024

// FeedParallel replays a packet stream using the given number of worker
// goroutines and blocks until every packet is processed. Each worker feeds
// its slice of the stream through the batched path in bounded batches.
func (s *Sharded) FeedParallel(pkts []flow.Packet, workers int) {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	chunk := (len(pkts) + workers - 1) / workers
	for start := 0; start < len(pkts); start += chunk {
		end := start + chunk
		if end > len(pkts) {
			end = len(pkts)
		}
		wg.Add(1)
		go func(part []flow.Packet) {
			defer wg.Done()
			for len(part) > 0 {
				n := feedBatchSize
				if n > len(part) {
					n = len(part)
				}
				s.UpdateBatch(part[:n])
				part = part[n:]
			}
		}(pkts[start:end])
	}
	wg.Wait()
	s.Flush()
}

// Records merges the records of every shard, after an ingestion barrier in
// asynchronous mode. Shard routing guarantees the same key never appears
// in two shards. The result is deterministic — shards in index order, each
// shard's records sorted by packed flow key — and allocated pre-sized in
// one step.
func (s *Sharded) Records() []flow.Record {
	return s.AppendRecords(nil)
}

// AppendRecords appends every shard's records to dst and returns the
// extended slice, in the same deterministic shard-then-key order as
// Records. The shards are drained in parallel into per-shard chunk buffers
// owned by the recorder and reused across epochs, then concatenated into
// dst with a single pre-sized grow, so exporting every epoch through one
// reused dst buffer is allocation-free at steady state.
//
// The first multi-shard extraction spawns one persistent export worker
// goroutine per shard (idle between extractions); call Close when
// discarding the recorder to stop them, as in asynchronous mode.
func (s *Sharded) AppendRecords(dst []flow.Record) []flow.Record {
	s.Flush()
	e := &s.export
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.bufs == nil {
		e.bufs = make([][]flow.Record, len(s.shards))
	}
	if len(s.shards) > 1 && !e.stopped {
		if !e.started {
			e.req = make(chan int)
			e.done = make(chan struct{}, len(s.shards))
			for w := 0; w < len(s.shards); w++ {
				e.wg.Add(1)
				go s.exportWorker()
			}
			e.started = true
		}
		for i := range s.shards {
			e.req <- i
		}
		for range s.shards {
			<-e.done
		}
	} else {
		for i := range s.shards {
			s.exportShard(i)
		}
	}
	total := 0
	for i := range e.bufs {
		total += len(e.bufs[i])
	}
	dst = slices.Grow(dst, total)
	for i := range e.bufs {
		dst = append(dst, e.bufs[i]...)
	}
	return dst
}

// exportWorker drains shard indices from the export request channel until
// Close tears the channel down.
func (s *Sharded) exportWorker() {
	defer s.export.wg.Done()
	for i := range s.export.req {
		s.exportShard(i)
		s.export.done <- struct{}{}
	}
}

// exportShard extracts one shard's records into its reused chunk buffer
// and sorts the chunk by packed flow key for deterministic output. Keys
// are unique within a shard (routing sends a flow to exactly one shard
// and recorders report each key once), so the order is a pure function
// of the record set.
func (s *Sharded) exportShard(i int) {
	slot := &s.shards[i]
	slot.mu.Lock()
	s.export.bufs[i] = slot.rec.AppendRecords(s.export.bufs[i][:0])
	slot.mu.Unlock()
	flow.SortByKey(s.export.bufs[i])
}

// EstimateSize routes the query to the owning shard, after an ingestion
// barrier in asynchronous mode.
func (s *Sharded) EstimateSize(k flow.Key) uint32 {
	s.Flush()
	slot := &s.shards[s.routeIdx(k)]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	return slot.rec.EstimateSize(k)
}

// EstimateCardinality sums the per-shard estimates; shards hold disjoint
// flow populations, so the sum is the natural combiner.
func (s *Sharded) EstimateCardinality() float64 {
	s.Flush()
	var total float64
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		total += slot.rec.EstimateCardinality()
		slot.mu.Unlock()
	}
	return total
}

// MemoryBytes sums the shards' footprints.
func (s *Sharded) MemoryBytes() int {
	total := 0
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		total += slot.rec.MemoryBytes()
		slot.mu.Unlock()
	}
	return total
}

// OpStats sums the shards' operation counts, after an ingestion barrier in
// asynchronous mode.
func (s *Sharded) OpStats() flow.OpStats {
	s.Flush()
	var total flow.OpStats
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		total = total.Add(slot.rec.OpStats())
		slot.mu.Unlock()
	}
	return total
}

// Reset clears every shard (and its sidecar, if attached), after an
// ingestion barrier in asynchronous mode.
func (s *Sharded) Reset() {
	s.Flush()
	for i := range s.shards {
		slot := &s.shards[i]
		slot.mu.Lock()
		slot.rec.Reset()
		if sc := s.sidecar(i); sc != nil {
			sc.Reset()
		}
		slot.mu.Unlock()
	}
}

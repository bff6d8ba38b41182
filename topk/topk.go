// Package topk maintains the heavy hitters of a packet stream online, as a
// sidecar next to the measurement recorder, so "who are the biggest flows
// right now?" is answered from a small always-current summary instead of
// dumping and filtering a full epoch per query.
//
// Tracker is a Space-Saving summary (Metwally et al., ICDT 2005) laid out
// for the ingest hot path: entries live in one flat array indexed by a
// key map, the minimum is tracked by an intrusive binary min-heap of slot
// indices, and updates are O(log capacity) with no per-update allocation.
// Unlike the paper-faithful heap-of-pointers baseline in
// internal/spacesaving, Tracker supports weighted increments (Add), so the
// collector side can feed it decoded flow records, and exposes
// zero-allocation snapshots (AppendTopK, AppendSorted) for the query path.
//
// Tracker is internally synchronized: ingest workers update it under their
// own cadence while query handlers snapshot it concurrently.
package topk

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/flow"
	"repro/internal/hashing"
)

// EntryBytes approximates the memory footprint of one tracked entry:
// the entry struct (key 13 B padded + digest 8 B + count 4 B + error
// 4 B + heap position 4 B ≈ 40 B), its heap node (8 B), and its share
// of the open-addressing index (2 slots of 8 B at <=50% load).
const EntryBytes = 64

// entry is one tracked flow.
type entry struct {
	key   flow.Key
	hash  uint64 // the key's digest, kept so eviction never re-hashes
	count uint32
	err   uint32 // overestimation inherited when the slot was recycled
	pos   int32  // position in the heap
}

// heapNode is one min-heap element. The count is duplicated out of the
// entry so sift comparisons stay inside this compact (8 B/element,
// L1-resident) array instead of chasing random entry loads; the entry's
// count remains authoritative and the node copy is refreshed on every
// change.
type heapNode struct {
	count uint32
	slot  int32
}

// Tracker is an online Space-Saving heavy-hitter summary.
type Tracker struct {
	mu       sync.Mutex
	capacity int
	entries  []entry
	heap     []heapNode // min-heap over entry counts
	packets  uint64

	// idx is the digest-indexed key index: an open-addressing table
	// (linear probing, backward-shift deletion, <=50% load) replacing
	// the seed's Go map — the per-packet lookup is one cheap KeyHash
	// plus a compact probe chain instead of the runtime map machinery,
	// which was most of the sidecar's ~100ns/pkt cost. Each slot packs
	// the key's 32-bit hash fingerprint (high word) with slot+1 (low
	// word, 0 = empty), so probe mismatches and the eviction-time
	// backward shift resolve inside this one array without loading
	// entries.
	idx []uint64

	// scratch backs the zero-allocation snapshots; it is reused across
	// AppendTopK/AppendSorted calls under mu.
	scratch []flow.Record

	// agg is the per-batch pre-aggregation table: a small open-addressing
	// map (same digest as idx, so each packet is hashed exactly once)
	// that folds a batch down to one weighted count per distinct key
	// before the Space-Saving update, so the summary pays one index
	// lookup and heap fix per distinct key per batch instead of per
	// packet. slots lists the occupied positions for O(distinct)
	// clearing. Both are reused across batches under mu.
	agg   []aggEntry
	slots []int32
}

// aggEntry is one pre-aggregated (key, weight) of the batch in flight,
// carrying the key's digest so the Space-Saving update reuses it.
type aggEntry struct {
	key   flow.Key
	count uint32
	hash  uint64
}

// tableSeed salts the tracker's digest independently of the shard router
// and the recorder hash families. The index and the pre-aggregation
// table deliberately share it: one KeyHash per packet serves both.
const tableSeed = 0x70b1

// NewTracker builds a tracker holding at most capacity flows.
func NewTracker(capacity int) (*Tracker, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("topk: capacity must be positive, got %d", capacity)
	}
	return &Tracker{
		capacity: capacity,
		entries:  make([]entry, 0, capacity),
		heap:     make([]heapNode, 0, capacity),
		idx:      make([]uint64, 1<<bits.Len(uint(2*capacity-1))),
	}, nil
}

// Capacity returns the maximum number of tracked flows.
func (t *Tracker) Capacity() int { return t.capacity }

// Len returns the number of currently tracked flows.
func (t *Tracker) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Packets returns the total packet weight absorbed since the last Reset.
func (t *Tracker) Packets() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.packets
}

// Update processes one packet.
func (t *Tracker) Update(p flow.Packet) {
	t.Add(p.Key, 1)
}

// UpdateBatch processes a batch of packets under one lock acquisition,
// the form the shard batch workers feed. The batch is pre-aggregated by
// key first, so the Space-Saving structure sees one weighted add per
// distinct key — on heavy-tailed traffic most of a batch collapses into
// a few counters and the per-packet map-lookup + heap-fix cost drops
// with it. The tracked summary is equivalent to per-packet updates up to
// arrival order within the batch (the usual Space-Saving order
// sensitivity); totals and error bounds are identical.
func (t *Tracker) UpdateBatch(pkts []flow.Packet) {
	if len(pkts) == 0 {
		return
	}
	t.mu.Lock()
	t.sizeAgg(len(pkts))
	mask := uint64(len(t.agg) - 1)
	for _, p := range pkts {
		w1, w2 := p.Key.Words()
		h := hashing.KeyHash(tableSeed, w1, w2)
		i := h & mask
		for {
			e := &t.agg[i]
			if e.count == 0 {
				*e = aggEntry{key: p.Key, count: 1, hash: h}
				t.slots = append(t.slots, int32(i))
				break
			}
			if e.key == p.Key {
				e.count++
				break
			}
			i = (i + 1) & mask
		}
	}
	for _, s := range t.slots {
		e := t.agg[s]
		t.agg[s] = aggEntry{}
		t.addHashed(e.key, e.count, e.hash)
	}
	t.slots = t.slots[:0]
	t.mu.Unlock()
}

// sizeAgg ensures the pre-aggregation table holds n keys at <= 50% load.
// The table only grows (batch sizes are stable in practice) and grown
// storage is reused, so steady-state batches do not allocate. Callers
// hold mu and must leave the table cleared.
func (t *Tracker) sizeAgg(n int) {
	want := 1 << bits.Len(uint(2*n-1))
	if want > len(t.agg) {
		t.agg = make([]aggEntry, want)
		t.slots = slices.Grow(t.slots[:0], want/2)
	}
}

// Add credits w packets to key. This is the weighted form the collector
// side uses to feed decoded flow records (one Add per record).
func (t *Tracker) Add(key flow.Key, w uint32) {
	t.mu.Lock()
	t.add(key, w)
	t.mu.Unlock()
}

// AddRecords credits a batch of flow records under one lock acquisition.
func (t *Tracker) AddRecords(recs []flow.Record) {
	t.mu.Lock()
	for _, r := range recs {
		t.add(r.Key, r.Count)
	}
	t.mu.Unlock()
}

func (t *Tracker) add(key flow.Key, w uint32) {
	// The hash is written out rather than shared through digest(): the
	// wrapped form exceeds the inlining budget and the call shows up at
	// per-packet rates.
	w1, w2 := key.Words()
	t.addHashed(key, w, hashing.KeyHash(tableSeed, w1, w2))
}

// digest is the tracker's canonical key hash, shared by the index and
// the pre-aggregation table (cold paths; hot paths inline it).
func digest(key flow.Key) uint64 {
	w1, w2 := key.Words()
	return hashing.KeyHash(tableSeed, w1, w2)
}

// addHashed is add with the key's digest already computed (the batched
// path hashes each packet once and reuses it here).
func (t *Tracker) addHashed(key flow.Key, w uint32, h uint64) {
	t.packets += uint64(w)
	if slot, ok := t.lookup(key, h); ok {
		e := &t.entries[slot]
		e.count = satAdd(e.count, w)
		t.heap[e.pos].count = e.count
		t.siftDown(e.pos)
		return
	}
	if len(t.entries) < t.capacity {
		slot := int32(len(t.entries))
		t.entries = append(t.entries, entry{key: key, hash: h, count: w, pos: slot})
		t.heap = append(t.heap, heapNode{count: w, slot: slot})
		t.insertIdx(h, slot)
		t.siftUp(int32(len(t.heap) - 1))
		return
	}
	// Full: recycle the minimum entry, inheriting its count as error —
	// the Space-Saving replacement rule.
	slot := t.heap[0].slot
	e := &t.entries[slot]
	t.removeIdx(e.hash, slot)
	e.key = key
	e.hash = h
	e.err = e.count
	e.count = satAdd(e.count, w)
	t.insertIdx(h, slot)
	t.heap[0].count = e.count
	t.siftDown(0)
}

// packIdx builds an index slot value: the digest's low word as the
// fingerprint, slot+1 as the payload. The fingerprint's low bits are the
// home position, so a slot value alone is enough to re-derive where its
// probe chain starts.
func packIdx(h uint64, slot int32) uint64 {
	return uint64(uint32(h))<<32 | uint64(uint32(slot+1))
}

// lookup finds the slot tracking key, probing from its digest's home
// position. Entries are only dereferenced on fingerprint matches.
func (t *Tracker) lookup(key flow.Key, h uint64) (int32, bool) {
	mask := uint64(len(t.idx) - 1)
	fp := uint32(h)
	for i := h & mask; ; i = (i + 1) & mask {
		v := t.idx[i]
		if v == 0 {
			return 0, false
		}
		if uint32(v>>32) == fp {
			s := int32(uint32(v)) - 1
			if t.entries[s].key == key {
				return s, true
			}
		}
	}
}

// insertIdx records that slot tracks a key with digest h. The key must
// not already be indexed.
func (t *Tracker) insertIdx(h uint64, slot int32) {
	mask := uint64(len(t.idx) - 1)
	i := h & mask
	for t.idx[i] != 0 {
		i = (i + 1) & mask
	}
	t.idx[i] = packIdx(h, slot)
}

// removeIdx unindexes the key of the given slot (digest h) using
// backward-shift deletion, which keeps every surviving key's probe chain
// intact without tombstones — the index stays clean no matter how many
// evictions the Space-Saving recycle rule performs. The shift scan runs
// entirely inside the index array: each slot value carries its own home
// position in its fingerprint bits.
func (t *Tracker) removeIdx(h uint64, slot int32) {
	mask := uint64(len(t.idx) - 1)
	want := uint32(slot + 1)
	i := h & mask
	for {
		v := t.idx[i]
		if v == 0 {
			return // not indexed; nothing to do
		}
		if uint32(v) == want {
			break
		}
		i = (i + 1) & mask
	}
	j := i
	for {
		t.idx[i] = 0
		for {
			j = (j + 1) & mask
			v := t.idx[j]
			if v == 0 {
				return
			}
			// The entry at j may fill the hole at i only if its home
			// position is cyclically outside (i, j] — otherwise moving it
			// would break its own probe chain.
			home := (v >> 32) & mask
			if (j-home)&mask >= (j-i)&mask {
				t.idx[i] = v
				i = j
				break
			}
		}
	}
}

// satAdd adds saturating at the uint32 ceiling, matching netwide's
// combineSum semantics.
func satAdd(a, b uint32) uint32 {
	s := a + b
	if s < a {
		s = ^uint32(0)
	}
	return s
}

// The heap is 4-ary: half the depth of a binary heap, and one node's
// children share a cache line of the compact node array, so the
// per-update sift touches fewer lines — the heap fix is the other half
// of the sidecar's per-packet cost next to the key lookup.
const heapArity = 4

// siftDown restores the heap below position i after a count increase.
// Comparisons touch only the compact heap array.
func (t *Tracker) siftDown(i int32) {
	n := int32(len(t.heap))
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		last := first + heapArity
		if last > n {
			last = n
		}
		min := i
		for c := first; c < last; c++ {
			if t.heap[c].count < t.heap[min].count {
				min = c
			}
		}
		if min == i {
			return
		}
		t.swap(i, min)
		i = min
	}
}

// siftUp restores the heap above position i after an insertion.
func (t *Tracker) siftUp(i int32) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if t.heap[parent].count <= t.heap[i].count {
			return
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *Tracker) swap(i, j int32) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.entries[t.heap[i].slot].pos = i
	t.entries[t.heap[j].slot].pos = j
}

// Estimate returns the tracked count and inherited overestimation error
// for key. ok is false when the flow is not tracked. Space-Saving
// guarantees est-err <= true count <= est for tracked flows.
func (t *Tracker) Estimate(key flow.Key) (est, err uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	slot, ok := t.lookup(key, digest(key))
	if !ok {
		return 0, 0, false
	}
	return t.entries[slot].count, t.entries[slot].err, true
}

// AppendTopK appends the k largest tracked flows to dst (count descending,
// key order breaking ties) and returns the extended slice. The snapshot is
// taken under the tracker lock into tracker-owned scratch, so steady-state
// calls with a reused dst are allocation-free.
func (t *Tracker) AppendTopK(dst []flow.Record, k int) []flow.Record {
	if k <= 0 {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fillScratch()
	slices.SortFunc(t.scratch, flow.CompareByCount)
	if k > len(t.scratch) {
		k = len(t.scratch)
	}
	return append(dst, t.scratch[:k]...)
}

// AppendSorted appends every tracked flow to dst in packed-key order — the
// netwide.View order the Into merges consume — and returns the extended
// slice. Allocation-free with a reused dst.
func (t *Tracker) AppendSorted(dst []flow.Record) []flow.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fillScratch()
	flow.SortByKey(t.scratch)
	return append(dst, t.scratch...)
}

// fillScratch snapshots the entries into t.scratch. Callers hold mu.
func (t *Tracker) fillScratch() {
	t.scratch = slices.Grow(t.scratch[:0], len(t.entries))
	for i := range t.entries {
		t.scratch = append(t.scratch, flow.Record{Key: t.entries[i].key, Count: t.entries[i].count})
	}
}

// Reset clears the tracker for the next epoch. The capacity and the
// allocated tables are kept.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.entries = t.entries[:0]
	t.heap = t.heap[:0]
	clear(t.idx)
	t.packets = 0
}

// MemoryBytes approximates the tracker footprint.
func (t *Tracker) MemoryBytes() int {
	return t.capacity * EntryBytes
}

// Set: the per-shard form of the tracker. A sharded recorder partitions
// flows across shards, so the natural sidecar is one tracker per shard —
// updated inside the shard's batch worker with no cross-shard contention —
// and a query-side merge. Shard routing keeps keys disjoint across
// trackers, so the k-way sorted merge is a pure interleave and the
// combined summary has the same Space-Saving bounds as one tracker of the
// summed capacity.
package topk

import (
	"fmt"
	"slices"
	"sync"

	"repro/flow"
	"repro/netwide"
	"repro/shard"
)

// Set groups the per-shard trackers attached to one shard.Sharded.
// Its snapshot methods merge the shards' key-sorted views through
// netwide.MergeSumInto into Set-owned scratch, so steady-state queries
// with a reused dst are allocation-free.
type Set struct {
	trackers []*Tracker

	// mu serializes queries; the scratch below backs their zero-allocation
	// contract. Ingest never takes it — the per-tracker locks do that work.
	mu     sync.Mutex
	bufs   [][]flow.Record
	views  []netwide.View
	merged []flow.Record
}

// NewSet builds shards independent trackers of capacityPerShard entries
// each, without attaching them to a recorder.
func NewSet(shards, capacityPerShard int) (*Set, error) {
	if shards < 1 {
		return nil, fmt.Errorf("topk: need at least one shard, got %d", shards)
	}
	set := &Set{
		trackers: make([]*Tracker, shards),
		bufs:     make([][]flow.Record, shards),
		views:    make([]netwide.View, shards),
	}
	for i := range set.trackers {
		t, err := NewTracker(capacityPerShard)
		if err != nil {
			return nil, err
		}
		set.trackers[i] = t
		set.views[i] = netwide.View{Name: fmt.Sprintf("shard%d", i)}
	}
	return set, nil
}

// AttachSet builds one tracker per shard of s, registers them as s's
// ingest sidecars (updated inside the shard batch workers), and returns
// the set. Call before ingestion begins, per the SetSidecars contract.
func AttachSet(s *shard.Sharded, capacityPerShard int) (*Set, error) {
	set, err := NewSet(s.Shards(), capacityPerShard)
	if err != nil {
		return nil, err
	}
	scs := make([]shard.Sidecar, len(set.trackers))
	for i, t := range set.trackers {
		scs[i] = t
	}
	if err := s.SetSidecars(scs); err != nil {
		return nil, err
	}
	return set, nil
}

// Trackers returns the per-shard trackers (shared, not copied).
func (s *Set) Trackers() []*Tracker { return s.trackers }

// Shards returns the number of per-shard trackers.
func (s *Set) Shards() int { return len(s.trackers) }

// Packets sums the packet weight absorbed across shards since Reset.
func (s *Set) Packets() uint64 {
	var total uint64
	for _, t := range s.trackers {
		total += t.Packets()
	}
	return total
}

// snapshotLocked refreshes the merged cross-shard view. Callers hold s.mu.
func (s *Set) snapshotLocked() {
	for i, t := range s.trackers {
		s.bufs[i] = t.AppendSorted(s.bufs[i][:0])
		s.views[i].Records = s.bufs[i]
	}
	s.merged = netwide.MergeSumInto(s.merged[:0], s.views...)
}

// AppendTopK appends the k largest flows across all shards to dst (count
// descending, key order breaking ties) and returns the extended slice.
func (s *Set) AppendTopK(dst []flow.Record, k int) []flow.Record {
	if k <= 0 {
		return dst
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotLocked()
	// The merge leaves s.merged key-sorted; reorder the scratch by count
	// for selection. AppendSorted re-sorts it next time.
	slices.SortFunc(s.merged, flow.CompareByCount)
	if k > len(s.merged) {
		k = len(s.merged)
	}
	return append(dst, s.merged[:k]...)
}

// AppendSorted appends every tracked flow across shards to dst in packed
// key order (the netwide.View order) and returns the extended slice.
func (s *Set) AppendSorted(dst []flow.Record) []flow.Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshotLocked()
	return append(dst, s.merged...)
}

// Reset clears every shard tracker.
func (s *Set) Reset() {
	for _, t := range s.trackers {
		t.Reset()
	}
}

// MemoryBytes approximates the set footprint.
func (s *Set) MemoryBytes() int {
	total := 0
	for _, t := range s.trackers {
		total += t.MemoryBytes()
	}
	return total
}

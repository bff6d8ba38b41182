// Package netwide implements the network-wide aggregation the paper lists
// as future work: merging flow records collected at multiple vantage points
// (switches) into one network view.
//
// Two merge semantics are provided:
//
//   - MergeMax: a flow may traverse several monitored links, each counting
//     (a subset of) its packets; the best single-path estimate of the flow's
//     size is the maximum observed count.
//   - MergeSum: when vantage points observe disjoint traffic (for example
//     per-uplink load balancing), counts add.
//
// Both are implemented without maps: MergeMax/MergeSum gather all views
// into one buffer, key-sort it with flow.SortByKey and combine adjacent
// duplicates in place. When the views are already key-sorted (the order
// shard.Sharded exports per shard and recordstore persists), the Into
// variants perform a direct k-way merge into a caller-supplied buffer with
// zero steady-state allocations.
package netwide

import (
	"slices"

	"repro/flow"
)

// View is the record set collected at one vantage point.
type View struct {
	// Name identifies the vantage point (switch/link).
	Name string
	// Records are the flow records it reported.
	Records []flow.Record
}

// combineMax keeps the larger of two counts.
func combineMax(old, add uint32) uint32 {
	if add > old {
		return add
	}
	return old
}

// combineSum adds two counts, saturating at the uint32 ceiling.
func combineSum(old, add uint32) uint32 {
	s := old + add
	if s < old {
		s = ^uint32(0)
	}
	return s
}

// MergeMax combines views keeping, per flow, the maximum reported count.
// The result is ordered by count descending (key order breaking ties).
func MergeMax(views ...View) []flow.Record {
	return merge(views, combineMax)
}

// MergeSum combines views summing per-flow counts (saturating). The result
// is ordered by count descending (key order breaking ties).
func MergeSum(views ...View) []flow.Record {
	return merge(views, combineSum)
}

// merge gathers every view into one pre-sized buffer, key-sorts it, folds
// adjacent duplicates in place with combine, and finally orders the merged
// set by count for reporting. No maps: the sort-and-fold pass replaces the
// seed's per-key map inserts and lets arbitrarily large views merge with
// two sorts and one linear scan.
func merge(views []View, combine func(old, add uint32) uint32) []flow.Record {
	total := 0
	for _, v := range views {
		total += len(v.Records)
	}
	all := make([]flow.Record, 0, total)
	for _, v := range views {
		all = append(all, v.Records...)
	}
	flow.SortByKey(all)
	out := foldSorted(all, combine)
	slices.SortFunc(out, flow.CompareByCount)
	return out
}

// FoldSum combines adjacent equal-key records of a key-sorted slice in
// place, summing their counts (saturating) as MergeSum does, and returns
// the shortened slice.
func FoldSum(recs []flow.Record) []flow.Record {
	return foldSorted(recs, combineSum)
}

// foldSorted combines adjacent equal-key records of a key-sorted slice in
// place and returns the shortened slice.
func foldSorted(recs []flow.Record, combine func(old, add uint32) uint32) []flow.Record {
	out := recs[:0]
	for _, r := range recs {
		if n := len(out); n > 0 && out[n-1].Key == r.Key {
			out[n-1].Count = combine(out[n-1].Count, r.Count)
			continue
		}
		out = append(out, r)
	}
	return out
}

// MergeMaxInto k-way merges key-sorted views into dst keeping, per flow,
// the maximum reported count; see MergeSumInto for the contract.
func MergeMaxInto(dst []flow.Record, views ...View) []flow.Record {
	return mergeInto(dst, views, combineMax)
}

// MergeSumInto k-way merges key-sorted views into dst summing per-flow
// counts (saturating), appending the merged records in key order and
// returning the extended slice. Every view's Records must already be
// sorted by packed key (flow.SortByKey order) — shard.Sharded exports each
// shard's chunk and recordstore stores each epoch exactly so. dst is
// reused across calls by the epoch pipeline, making steady-state
// network-wide aggregation allocation-free.
func MergeSumInto(dst []flow.Record, views ...View) []flow.Record {
	return mergeInto(dst, views, combineSum)
}

// mergeInto is a direct k-way merge: each view keeps a cursor, the minimum
// key among cursors is appended (or folded into the previous output record
// when the key repeats across views). The cursor array lives on the stack
// for realistic view counts.
func mergeInto(dst []flow.Record, views []View, combine func(old, add uint32) uint32) []flow.Record {
	var idxArr [16]int
	var idx []int
	if len(views) <= len(idxArr) {
		idx = idxArr[:len(views)]
	} else {
		idx = make([]int, len(views))
	}
	start := len(dst)
	for {
		best := -1
		var b1, b2 uint64
		for v := range views {
			if idx[v] >= len(views[v].Records) {
				continue
			}
			w1, w2 := views[v].Records[idx[v]].Key.Words()
			if best < 0 || w1 < b1 || (w1 == b1 && w2 < b2) {
				best, b1, b2 = v, w1, w2
			}
		}
		if best < 0 {
			return dst
		}
		r := views[best].Records[idx[best]]
		idx[best]++
		if n := len(dst); n > start && dst[n-1].Key == r.Key {
			dst[n-1].Count = combine(dst[n-1].Count, r.Count)
			continue
		}
		dst = append(dst, r)
	}
}

// Delta is one per-key count change between two epochs' record sets:
// Prev is the key's count in the earlier epoch (0 if absent), Cur its
// count in the later one (0 if vanished).
type Delta struct {
	Key  flow.Key
	Prev uint32
	Cur  uint32
}

// Signed returns the change Cur-Prev as a signed value.
func (d Delta) Signed() int64 { return int64(d.Cur) - int64(d.Prev) }

// Abs returns the magnitude of the change.
func (d Delta) Abs() uint32 {
	if d.Cur >= d.Prev {
		return d.Cur - d.Prev
	}
	return d.Prev - d.Cur
}

// DiffInto appends to dst one Delta per key whose count differs by at
// least minAbs between prev and cur, and returns the extended slice.
// Both inputs must be key-sorted (flow.SortByKey order) with each key
// appearing at most once — the order epochs drain and persist in — so
// the diff is a single two-cursor walk: epoch-over-epoch change
// extraction with zero steady-state allocations when dst is reused.
// Keys absent from one side diff against zero; unchanged keys are never
// emitted (so minAbs 0 means "every changed key"). Deltas come out in
// key order.
func DiffInto(dst []Delta, prev, cur []flow.Record, minAbs uint32) []Delta {
	emit := func(d Delta) []Delta {
		if d.Cur != d.Prev && d.Abs() >= minAbs {
			dst = append(dst, d)
		}
		return dst
	}
	i, j := 0, 0
	for i < len(prev) && j < len(cur) {
		switch flow.CompareKeys(prev[i].Key, cur[j].Key) {
		case 0:
			dst = emit(Delta{Key: prev[i].Key, Prev: prev[i].Count, Cur: cur[j].Count})
			i++
			j++
		case -1:
			dst = emit(Delta{Key: prev[i].Key, Prev: prev[i].Count})
			i++
		default:
			dst = emit(Delta{Key: cur[j].Key, Cur: cur[j].Count})
			j++
		}
	}
	for ; i < len(prev); i++ {
		dst = emit(Delta{Key: prev[i].Key, Prev: prev[i].Count})
	}
	for ; j < len(cur); j++ {
		dst = emit(Delta{Key: cur[j].Key, Cur: cur[j].Count})
	}
	return dst
}

// DeltaView is one vantage point's key-sorted per-epoch delta list — the
// change-summary payload a detector reports, re-sorted into merge order.
type DeltaView struct {
	// Name identifies the vantage point.
	Name string
	// Deltas must be sorted by packed key (flow.CompareKeys order) with
	// each key appearing at most once.
	Deltas []Delta
}

// CorrelatedDelta is one key's fold across vantage points: how many
// views reported the key changing, how many of those crossed the local
// alert threshold, and the summed before/after counts of the reporting
// views (a vantage that did not report the key contributes nothing — its
// delta sat below that vantage's summary floor).
type CorrelatedDelta struct {
	Key flow.Key
	// Prev and Cur are the saturating sums of the reporting views'
	// before/after counts.
	Prev, Cur uint32
	// Vantages is how many views reported the key at all.
	Vantages int
	// Alerting is how many views reported it with |delta| >= the minAlert
	// handed to MergeDeltasInto — the per-vantage alert threshold.
	Alerting int
}

// Signed returns the merged change Cur-Prev as a signed value.
func (c CorrelatedDelta) Signed() int64 { return int64(c.Cur) - int64(c.Prev) }

// Abs returns the magnitude of the merged change.
func (c CorrelatedDelta) Abs() uint32 {
	if c.Cur >= c.Prev {
		return c.Cur - c.Prev
	}
	return c.Prev - c.Cur
}

// MergeDeltasInto k-way merges key-sorted delta lists from several
// vantage points into dst, appending one CorrelatedDelta per distinct
// key in key order and returning the extended slice. Per-view counts sum
// saturating; views whose |delta| is at least minAlert are additionally
// counted as Alerting. The same cursor walk as MergeSumInto, so
// steady-state cross-vantage correlation is allocation-free when dst is
// reused.
func MergeDeltasInto(dst []CorrelatedDelta, minAlert uint32, views ...DeltaView) []CorrelatedDelta {
	var idxArr [16]int
	var idx []int
	if len(views) <= len(idxArr) {
		idx = idxArr[:len(views)]
	} else {
		idx = make([]int, len(views))
	}
	start := len(dst)
	for {
		best := -1
		var b1, b2 uint64
		for v := range views {
			if idx[v] >= len(views[v].Deltas) {
				continue
			}
			w1, w2 := views[v].Deltas[idx[v]].Key.Words()
			if best < 0 || w1 < b1 || (w1 == b1 && w2 < b2) {
				best, b1, b2 = v, w1, w2
			}
		}
		if best < 0 {
			return dst
		}
		dl := views[best].Deltas[idx[best]]
		idx[best]++
		alerting := 0
		if dl.Abs() >= minAlert {
			alerting = 1
		}
		if n := len(dst); n > start && dst[n-1].Key == dl.Key {
			dst[n-1].Prev = combineSum(dst[n-1].Prev, dl.Prev)
			dst[n-1].Cur = combineSum(dst[n-1].Cur, dl.Cur)
			dst[n-1].Vantages++
			dst[n-1].Alerting += alerting
			continue
		}
		dst = append(dst, CorrelatedDelta{
			Key: dl.Key, Prev: dl.Prev, Cur: dl.Cur, Vantages: 1, Alerting: alerting,
		})
	}
}

// SortDeltasByKey orders a delta list by packed key — the DeltaView
// precondition (ChangeSummary lists arrive ordered by |delta|, not key).
func SortDeltasByKey(deltas []Delta) {
	slices.SortFunc(deltas, func(a, b Delta) int {
		return flow.CompareKeys(a.Key, b.Key)
	})
}

// Coverage reports how many distinct flows each view contributed that no
// other view saw, keyed by view name — a quick measure of vantage-point
// placement value.
func Coverage(views ...View) map[string]int {
	owner := make(map[flow.Key]string)
	dup := make(map[flow.Key]bool)
	for _, v := range views {
		for _, r := range v.Records {
			if prev, ok := owner[r.Key]; ok && prev != v.Name {
				dup[r.Key] = true
				continue
			}
			owner[r.Key] = v.Name
		}
	}
	out := make(map[string]int, len(views))
	for _, v := range views {
		out[v.Name] = 0
	}
	for k, name := range owner {
		if !dup[k] {
			out[name]++
		}
	}
	return out
}

// Static sources: frozen record sets served through the live-source
// interfaces, for daemons that answer from historical stores when no
// ingest pipeline is attached. Both orderings are precomputed once, so
// the request path is O(k) appends — never a scan.
package query

import (
	"repro/flow"
	"repro/netwide"
	"repro/recordstore"
)

// Static is an immutable record set implementing TopKSource and
// SortedSource.
type Static struct {
	byCount []flow.Record // count descending, key tiebreak
	byKey   []flow.Record // packed key order
}

// NewStatic freezes recs (copied) into a static source.
func NewStatic(recs []flow.Record) *Static {
	s := &Static{
		byCount: append([]flow.Record(nil), recs...),
		byKey:   append([]flow.Record(nil), recs...),
	}
	selectTopK(s.byCount, len(s.byCount))
	flow.SortByKey(s.byKey)
	return s
}

// AppendTopK appends the k largest frozen records to dst.
func (s *Static) AppendTopK(dst []flow.Record, k int) []flow.Record {
	if k > len(s.byCount) {
		k = len(s.byCount)
	}
	if k <= 0 {
		return dst
	}
	return append(dst, s.byCount[:k]...)
}

// AppendSorted appends every frozen record to dst in key order.
func (s *Static) AppendSorted(dst []flow.Record) []flow.Record {
	return append(dst, s.byKey...)
}

// Len returns the frozen record count.
func (s *Static) Len() int { return len(s.byKey) }

// SumStore folds every epoch of a store into one per-flow summed record
// set via the k-way sorted merge (epochs are stored key-sorted in every
// tier), the whole-history view a store contributes to /netwide/topk.
// Works over any EpochSource — flat, tiered, rollup epochs included.
func SumStore(src recordstore.EpochSource) (*Static, error) {
	views := make([]netwide.View, src.Epochs())
	bufs := make([][]flow.Record, src.Epochs())
	for i := range views {
		ep, err := src.AppendEpochAt(i, nil)
		if err != nil {
			return nil, err
		}
		bufs[i] = ep.Records
		views[i] = netwide.View{Records: bufs[i]}
	}
	return NewStatic(netwide.MergeSumInto(nil, views...)), nil
}

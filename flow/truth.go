package flow

import "slices"

// Truth accumulates exact per-flow packet counts and serves as the ground
// truth against which approximate recorders are scored.
type Truth struct {
	counts map[Key]uint32
	pkts   uint64
}

// NewTruth returns an empty ground-truth accumulator. The hint is the
// expected number of distinct flows (0 is fine).
func NewTruth(hint int) *Truth {
	return &Truth{counts: make(map[Key]uint32, hint)}
}

// Observe counts one packet.
func (t *Truth) Observe(p Packet) {
	t.counts[p.Key]++
	t.pkts++
}

// ObserveAll counts every packet in pkts.
func (t *Truth) ObserveAll(pkts []Packet) {
	for _, p := range pkts {
		t.Observe(p)
	}
}

// Flows returns the number of distinct flows observed.
func (t *Truth) Flows() int { return len(t.counts) }

// Packets returns the total number of packets observed.
func (t *Truth) Packets() uint64 { return t.pkts }

// Count returns the exact packet count of a flow (0 if never seen).
func (t *Truth) Count(k Key) uint32 { return t.counts[k] }

// Contains reports whether the flow was observed at least once.
func (t *Truth) Contains(k Key) bool {
	_, ok := t.counts[k]
	return ok
}

// Records returns all exact flow records in unspecified order.
func (t *Truth) Records() []Record {
	out := make([]Record, 0, len(t.counts))
	for k, c := range t.counts {
		out = append(out, Record{Key: k, Count: c})
	}
	return out
}

// HeavyHitters returns the keys of all flows with at least threshold packets.
func (t *Truth) HeavyHitters(threshold uint32) []Key {
	var out []Key
	for k, c := range t.counts {
		if c >= threshold {
			out = append(out, k)
		}
	}
	return out
}

// TopK returns the k largest flows in descending count order. Ties are
// broken deterministically by key encoding so results are reproducible.
func (t *Truth) TopK(k int) []Record {
	recs := t.Records()
	slices.SortFunc(recs, CompareByCount)
	if k < len(recs) {
		recs = recs[:k]
	}
	return recs
}

// MaxCount returns the size of the largest flow (0 when empty).
func (t *Truth) MaxCount() uint32 {
	var m uint32
	for _, c := range t.counts {
		if c > m {
			m = c
		}
	}
	return m
}

// MeanCount returns the average flow size (0 when empty).
func (t *Truth) MeanCount() float64 {
	if len(t.counts) == 0 {
		return 0
	}
	return float64(t.pkts) / float64(len(t.counts))
}

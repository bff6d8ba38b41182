package flow

import (
	"math/rand/v2"
	"testing"
)

func TestTruthCounts(t *testing.T) {
	tr := NewTruth(0)
	k1 := Key{SrcIP: 1}
	k2 := Key{SrcIP: 2}
	for i := 0; i < 5; i++ {
		tr.Observe(Packet{Key: k1})
	}
	tr.Observe(Packet{Key: k2})

	if got := tr.Flows(); got != 2 {
		t.Errorf("Flows = %d, want 2", got)
	}
	if got := tr.Packets(); got != 6 {
		t.Errorf("Packets = %d, want 6", got)
	}
	if got := tr.Count(k1); got != 5 {
		t.Errorf("Count(k1) = %d, want 5", got)
	}
	if got := tr.Count(Key{SrcIP: 3}); got != 0 {
		t.Errorf("Count(unknown) = %d, want 0", got)
	}
	if !tr.Contains(k2) || tr.Contains(Key{SrcIP: 9}) {
		t.Error("Contains misbehaves")
	}
	if got := tr.MaxCount(); got != 5 {
		t.Errorf("MaxCount = %d, want 5", got)
	}
	if got := tr.MeanCount(); got != 3 {
		t.Errorf("MeanCount = %v, want 3", got)
	}
}

func TestTruthHeavyHitters(t *testing.T) {
	tr := NewTruth(0)
	counts := map[Key]int{
		{SrcIP: 1}: 10,
		{SrcIP: 2}: 5,
		{SrcIP: 3}: 1,
	}
	for k, c := range counts {
		for i := 0; i < c; i++ {
			tr.Observe(Packet{Key: k})
		}
	}
	hh := tr.HeavyHitters(5)
	if len(hh) != 2 {
		t.Fatalf("HeavyHitters(5) = %d flows, want 2", len(hh))
	}
	for _, k := range hh {
		if tr.Count(k) < 5 {
			t.Errorf("reported non-heavy flow %v", k)
		}
	}
}

func TestTruthTopK(t *testing.T) {
	tr := NewTruth(0)
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 1; i <= 50; i++ {
		k := randKey(rng)
		for j := 0; j < i; j++ {
			tr.Observe(Packet{Key: k})
		}
	}
	top := tr.TopK(10)
	if len(top) != 10 {
		t.Fatalf("TopK(10) returned %d records", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Errorf("TopK not descending at %d: %d > %d", i, top[i].Count, top[i-1].Count)
		}
	}
	if top[0].Count != 50 {
		t.Errorf("largest flow = %d, want 50", top[0].Count)
	}
	// TopK larger than population returns everything.
	if got := len(tr.TopK(1000)); got != 50 {
		t.Errorf("TopK(1000) = %d records, want 50", got)
	}
}

func TestTruthRecordsMatchCounts(t *testing.T) {
	tr := NewTruth(0)
	rng := rand.New(rand.NewPCG(9, 10))
	want := make(map[Key]uint32)
	for i := 0; i < 1000; i++ {
		k := randKey(rng)
		n := uint32(rng.IntN(20) + 1)
		want[k] += n
		for j := uint32(0); j < n; j++ {
			tr.Observe(Packet{Key: k})
		}
	}
	recs := tr.Records()
	if len(recs) != len(want) {
		t.Fatalf("Records() = %d, want %d", len(recs), len(want))
	}
	for _, r := range recs {
		if want[r.Key] != r.Count {
			t.Errorf("record %v count %d, want %d", r.Key, r.Count, want[r.Key])
		}
	}
}

func TestTruthObserveAll(t *testing.T) {
	tr := NewTruth(0)
	pkts := []Packet{{Key: Key{SrcIP: 1}}, {Key: Key{SrcIP: 1}}, {Key: Key{SrcIP: 2}}}
	tr.ObserveAll(pkts)
	if tr.Packets() != 3 || tr.Flows() != 2 {
		t.Errorf("ObserveAll: packets=%d flows=%d, want 3/2", tr.Packets(), tr.Flows())
	}
}

func TestCompareKeysTotalOrder(t *testing.T) {
	keys := []Key{
		{SrcIP: 1}, {SrcIP: 2},
		{SrcIP: 1, DstIP: 1}, {SrcIP: 1, SrcPort: 1},
		{SrcIP: 1, DstPort: 1}, {SrcIP: 1, Proto: 1},
	}
	for _, a := range keys {
		if c := CompareKeys(a, a); c != 0 {
			t.Errorf("CompareKeys(%v, %v) = %d, want 0", a, a, c)
		}
		for _, b := range keys {
			if a != b && CompareKeys(a, b) != -CompareKeys(b, a) {
				t.Errorf("CompareKeys not antisymmetric for %v, %v", a, b)
			}
		}
	}
}

package netwide

import (
	"math/rand"
	"testing"

	"repro/flow"
)

// randomView builds a key-sorted view of n records with distinct keys.
func randomView(rng *rand.Rand, name string, n int) View {
	seen := make(map[flow.Key]bool, n)
	recs := make([]flow.Record, 0, n)
	for len(recs) < n {
		k := flow.Key{
			SrcIP:   rng.Uint32() % 5000, // force cross-view key overlap
			DstIP:   rng.Uint32() % 16,
			SrcPort: uint16(rng.Uint32() % 8),
			Proto:   6,
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		recs = append(recs, flow.Record{Key: k, Count: 1 + rng.Uint32()%1000})
	}
	flow.SortByKey(recs)
	return View{Name: name, Records: recs}
}

// TestMergeIntoMatchesMerge cross-checks the k-way merge over sorted views
// against the general merge on randomized overlapping views, for both
// combine semantics.
func TestMergeIntoMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	views := []View{
		randomView(rng, "s1", 2000),
		randomView(rng, "s2", 1500),
		randomView(rng, "s3", 800),
		{Name: "s4"}, // empty view must be harmless
	}

	check := func(t *testing.T, kway, general []flow.Record) {
		t.Helper()
		// kway is key-sorted; general is count-sorted. Compare as sets.
		want := make(map[flow.Key]uint32, len(general))
		for _, r := range general {
			want[r.Key] = r.Count
		}
		if len(kway) != len(want) {
			t.Fatalf("k-way merged %d flows, general merge %d", len(kway), len(want))
		}
		for i, r := range kway {
			if want[r.Key] != r.Count {
				t.Errorf("flow %v = %d, want %d", r.Key, r.Count, want[r.Key])
			}
			if i > 0 && !keyLess(kway[i-1].Key, r.Key) {
				t.Fatalf("k-way output not strictly key-sorted at %d", i)
			}
		}
	}

	t.Run("max", func(t *testing.T) {
		check(t, MergeMaxInto(nil, views...), MergeMax(views...))
	})
	t.Run("sum", func(t *testing.T) {
		check(t, MergeSumInto(nil, views...), MergeSum(views...))
	})
}

func keyLess(a, b flow.Key) bool {
	return flow.CompareKeys(a, b) < 0
}

// TestMergeIntoAppends verifies dst content before the call survives and
// is never folded into.
func TestMergeIntoAppends(t *testing.T) {
	k := flow.Key{SrcIP: 9}
	prefix := flow.Record{Key: k, Count: 1}
	got := MergeSumInto([]flow.Record{prefix},
		View{Name: "s1", Records: []flow.Record{{Key: k, Count: 5}}},
		View{Name: "s2", Records: []flow.Record{{Key: k, Count: 7}}},
	)
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (prefix + merged)", len(got))
	}
	if got[0] != prefix {
		t.Errorf("prefix clobbered: %+v", got[0])
	}
	if got[1].Count != 12 {
		t.Errorf("merged count = %d, want 12", got[1].Count)
	}
}

// TestMergeIntoManyViews exercises the heap-allocated cursor fallback
// above the stack-array view count.
func TestMergeIntoManyViews(t *testing.T) {
	var views []View
	for i := 0; i < 20; i++ {
		views = append(views, View{
			Name:    "s",
			Records: []flow.Record{{Key: flow.Key{SrcIP: uint32(i % 4)}, Count: 1}},
		})
	}
	got := MergeSumInto(nil, views...)
	if len(got) != 4 {
		t.Fatalf("merged %d flows, want 4", len(got))
	}
	for _, r := range got {
		if r.Count != 5 {
			t.Errorf("flow %v = %d, want 5", r.Key, r.Count)
		}
	}
}

// TestMergeDeterministic pins the deterministic ordering of the general
// merge: count descending, key ascending among equal counts.
func TestMergeDeterministic(t *testing.T) {
	views := []View{
		{Name: "s1", Records: []flow.Record{{Key: kc, Count: 5}, {Key: ka, Count: 5}}},
		{Name: "s2", Records: []flow.Record{{Key: kb, Count: 5}}},
	}
	first := MergeMax(views...)
	for i := 0; i < 5; i++ {
		again := MergeMax(views...)
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("merge order unstable at %d: %+v vs %+v", j, again[j], first[j])
			}
		}
	}
	if first[0].Key != ka || first[1].Key != kb || first[2].Key != kc {
		t.Errorf("equal counts not key-ordered: %+v", first)
	}
}

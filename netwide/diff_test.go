package netwide

import (
	"testing"

	"repro/flow"
)

func dkey(i int) flow.Key {
	return flow.Key{SrcIP: uint32(i), DstPort: 443, Proto: 6}
}

func TestDiffInto(t *testing.T) {
	prev := []flow.Record{
		{Key: dkey(1), Count: 100}, // unchanged
		{Key: dkey(2), Count: 500}, // drops
		{Key: dkey(4), Count: 150}, // vanishes
		{Key: dkey(6), Count: 10},  // small change
	}
	cur := []flow.Record{
		{Key: dkey(1), Count: 100},
		{Key: dkey(2), Count: 100},
		{Key: dkey(3), Count: 900}, // appears
		{Key: dkey(6), Count: 12},
	}
	flow.SortByKey(prev)
	flow.SortByKey(cur)

	got := DiffInto(nil, prev, cur, 0)
	want := []Delta{
		{Key: dkey(2), Prev: 500, Cur: 100},
		{Key: dkey(3), Prev: 0, Cur: 900},
		{Key: dkey(4), Prev: 150, Cur: 0},
		{Key: dkey(6), Prev: 10, Cur: 12},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d deltas: %+v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("delta %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].Signed() != -400 || got[0].Abs() != 400 {
		t.Errorf("signed/abs of %+v: %d, %d", got[0], got[0].Signed(), got[0].Abs())
	}
	if got[1].Signed() != 900 {
		t.Errorf("appearing delta signed = %d", got[1].Signed())
	}

	// minAbs filters the small change and keeps key order.
	filtered := DiffInto(nil, prev, cur, 100)
	if len(filtered) != 3 {
		t.Fatalf("minAbs=100: %+v", filtered)
	}
	for i := 1; i < len(filtered); i++ {
		if flow.CompareKeys(filtered[i-1].Key, filtered[i].Key) >= 0 {
			t.Fatalf("deltas out of key order: %+v", filtered)
		}
	}

	// Empty sides.
	if d := DiffInto(nil, nil, cur, 0); len(d) != len(cur) {
		t.Errorf("nil prev: %d deltas, want %d", len(d), len(cur))
	}
	if d := DiffInto(nil, prev, nil, 0); len(d) != len(prev)-0 {
		// every prev key vanishes; the unchanged key too (100 -> 0)
		t.Errorf("nil cur: %d deltas, want %d", len(d), len(prev))
	}
	if d := DiffInto(nil, nil, nil, 0); len(d) != 0 {
		t.Errorf("nil/nil: %+v", d)
	}
}

// TestDiffIntoAllocFree pins the drain-path contract: diffing into a
// reused buffer must not allocate once grown.
func TestDiffIntoAllocFree(t *testing.T) {
	var prev, cur []flow.Record
	for i := 0; i < 2000; i++ {
		prev = append(prev, flow.Record{Key: dkey(i), Count: uint32(100 + i)})
		cur = append(cur, flow.Record{Key: dkey(i + 500), Count: uint32(90 + i)})
	}
	flow.SortByKey(prev)
	flow.SortByKey(cur)
	var dst []Delta
	dst = DiffInto(dst[:0], prev, cur, 0)
	if len(dst) == 0 {
		t.Fatal("empty diff")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		dst = DiffInto(dst[:0], prev, cur, 0)
	}); allocs != 0 {
		t.Errorf("DiffInto allocates %.0f times per diff, want 0", allocs)
	}
}

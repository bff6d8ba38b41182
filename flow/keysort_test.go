package flow

import (
	"math/rand"
	"slices"
	"testing"
)

// compareRecordKeys is the reference key order SortByKey must reproduce.
func compareRecordKeys(a, b Record) int { return CompareKeys(a.Key, b.Key) }

// compareDstThenKey is the detector's victim fan-in order: destination
// address first, key order within a destination.
func compareDstThenKey(a, b Record) int {
	if a.Key.DstIP != b.Key.DstIP {
		if a.Key.DstIP < b.Key.DstIP {
			return -1
		}
		return 1
	}
	return CompareKeys(a.Key, b.Key)
}

func randomKey(rng *rand.Rand) Key {
	return Key{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Uint32()),
		Proto:   uint8(rng.Uint32()),
	}
}

// sequentialKey is increasing in i under CompareKeys, with every address
// byte varying.
func sequentialKey(i int) Key {
	return Key{SrcIP: uint32(i>>8) * 0x01010101, DstIP: uint32(i&0xff) * 0x01010101, DstPort: 80, Proto: 17}
}

// keyDistributions generate n records each. Counts are the input index,
// so any reordering of equal keys is visible to the comparison.
var keyDistributions = []struct {
	name string
	key  func(rng *rand.Rand, i, n int) Key
}{
	{"random", func(rng *rand.Rand, _, _ int) Key { return randomKey(rng) }},
	// Every key byte is the same across the input: all passes skip.
	{"uniform", func(_ *rand.Rand, _, _ int) Key {
		return Key{SrcIP: 0x0a000001, DstIP: 0xc0a80001, SrcPort: 443, DstPort: 51000, Proto: 6}
	}},
	{"shared-high-bytes", func(rng *rand.Rand, _, _ int) Key {
		return Key{
			SrcIP:   0x0a000000 | rng.Uint32()&0xff,
			DstIP:   0x0a010000 | rng.Uint32()&0xfff,
			SrcPort: uint16(rng.Uint32() & 0x3),
			DstPort: 80,
			Proto:   6,
		}
	}},
	{"all-zero", func(_ *rand.Rand, _, _ int) Key { return Key{} }},
	{"sorted", func(_ *rand.Rand, i, _ int) Key { return sequentialKey(i) }},
	{"reversed", func(_ *rand.Rand, i, n int) Key { return sequentialKey(n - 1 - i) }},
	{"duplicates", func(rng *rand.Rand, _, _ int) Key {
		return Key{SrcIP: rng.Uint32() % 7, DstIP: rng.Uint32() % 5, Proto: uint8(rng.Uint32() % 3)}
	}},
}

// TestSortMatchesComparisonSort checks both sorts against the stable
// comparison sort they replace, on both sides of the radix threshold, with
// the pooled scratch reused across inputs that grow and shrink.
func TestSortMatchesComparisonSort(t *testing.T) {
	sizes := []int{0, 1, radixMinLen - 1, radixMinLen, radixMinLen + 1, 54000, 1, radixMinLen + 1, 0}
	rng := rand.New(rand.NewSource(1))
	for _, d := range keyDistributions {
		for _, n := range sizes {
			in := make([]Record, n)
			for i := range in {
				in[i] = Record{Key: d.key(rng, i, n), Count: uint32(i)}
			}

			want := slices.Clone(in)
			slices.SortStableFunc(want, compareRecordKeys)
			got := slices.Clone(in)
			SortByKey(got)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s n=%d: SortByKey differs at %d: got %v, want %v", d.name, n, i, got[i], want[i])
			}

			byDst := slices.Clone(want)
			slices.SortStableFunc(byDst, compareDstThenKey)
			SortByDst(got)
			if i := firstDiff(got, byDst); i >= 0 {
				t.Fatalf("%s n=%d: SortByDst differs at %d: got %v, want %v", d.name, n, i, got[i], byDst[i])
			}
		}
	}
}

func firstDiff(a, b []Record) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

func TestCompareByCount(t *testing.T) {
	recs := []Record{
		{Key: Key{SrcIP: 2}, Count: 5},
		{Key: Key{SrcIP: 1}, Count: 1},
		{Key: Key{SrcIP: 3}, Count: 5},
		{Key: Key{SrcIP: 1, Proto: 1}, Count: 5},
	}
	slices.SortFunc(recs, CompareByCount)
	want := []Record{
		{Key: Key{SrcIP: 1, Proto: 1}, Count: 5},
		{Key: Key{SrcIP: 2}, Count: 5},
		{Key: Key{SrcIP: 3}, Count: 5},
		{Key: Key{SrcIP: 1}, Count: 1},
	}
	if !slices.Equal(recs, want) {
		t.Errorf("CompareByCount order = %v, want %v", recs, want)
	}
}

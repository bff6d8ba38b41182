package flow

import (
	"slices"
	"sync"
)

// keyPasses is one radix pass per significant byte of the packed 104-bit
// key, least significant first: passes 0..4 read the five bytes of the
// second word (ports and protocol), passes 5..12 the eight bytes of the
// first (addresses). DstIP is the low half of the first word, passes
// dstPass..dstPass+3.
const (
	keyPasses = KeyBytes
	dstPass   = 5
)

// radixMinLen is the input size below which a comparison sort beats the
// distribution sort's fixed per-pass cost.
const radixMinLen = 192

// SortByKey orders recs by CompareKeys with an LSD radix sort over the
// packed key words: each record is packed into its two key words once,
// and passes whose byte is the same for every record (ubiquitous for the
// protocol byte and common port prefixes) are skipped. The sort is
// stable: records with equal keys keep their input order. Steady-state
// calls of stable sizes are allocation-free, and calls on distinct slices
// may run concurrently.
func SortByKey(recs []Record) {
	s := scratchPool.Get().(*sortScratch)
	defer scratchPool.Put(s)
	s.pack(recs)
	if len(recs) < radixMinLen {
		slices.SortStableFunc(s.buf, comparePacked)
	} else {
		s.radix(0, keyPasses)
	}
	s.unpack(recs)
}

// SortByDst stably orders recs by destination address with the four
// DstIP passes of SortByKey's radix sort. On input already in key order,
// the result is ordered by DstIP and then by key.
func SortByDst(recs []Record) {
	s := scratchPool.Get().(*sortScratch)
	defer scratchPool.Put(s)
	s.pack(recs)
	s.radix(dstPass, dstPass+4)
	s.unpack(recs)
}

// CompareByCount orders records by count descending, CompareKeys order
// breaking ties, and returns -1, 0 or +1: the ranking order of every
// top-k surface.
func CompareByCount(a, b Record) int {
	if a.Count != b.Count {
		if a.Count > b.Count {
			return -1
		}
		return 1
	}
	return CompareKeys(a.Key, b.Key)
}

// scratchPool shares sort scratch between sorts, so layers that sort one
// after another (the store writer, then the detector, on the epoch
// goroutine) reuse one set of buffers instead of each holding its own.
var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

// sortScratch is the working memory of one sort: the packed records, the
// radix ping-pong buffer and the per-pass histograms.
type sortScratch struct {
	buf, alt []packedRecord
	counts   [keyPasses][256]uint32
}

// packedRecord is a record in the form the radix passes read.
type packedRecord struct {
	w1, w2 uint64
	count  uint32
}

// keyByte returns the pass'th least significant byte of the packed key.
func (r packedRecord) keyByte(pass int) byte {
	if pass < dstPass {
		return byte(r.w2 >> (8 * uint(pass)))
	}
	return byte(r.w1 >> (8 * uint(pass-dstPass)))
}

func comparePacked(a, b packedRecord) int {
	switch {
	case a.w1 != b.w1:
		if a.w1 < b.w1 {
			return -1
		}
		return 1
	case a.w2 != b.w2:
		if a.w2 < b.w2 {
			return -1
		}
		return 1
	default:
		return 0
	}
}

func (s *sortScratch) pack(recs []Record) {
	s.buf = slices.Grow(s.buf[:0], len(recs))
	for _, r := range recs {
		w1, w2 := r.Key.Words()
		s.buf = append(s.buf, packedRecord{w1: w1, w2: w2, count: r.Count})
	}
}

func (s *sortScratch) unpack(recs []Record) {
	for i, r := range s.buf {
		recs[i] = Record{
			Key: Key{
				SrcIP:   uint32(r.w1 >> 32),
				DstIP:   uint32(r.w1),
				SrcPort: uint16(r.w2 >> 24),
				DstPort: uint16(r.w2 >> 8),
				Proto:   uint8(r.w2),
			},
			Count: r.count,
		}
	}
}

// radix stably sorts s.buf by the key bytes of passes lo..hi-1.
func (s *sortScratch) radix(lo, hi int) {
	n := len(s.buf)
	if n == 0 {
		return
	}
	// One scan fills the histograms of every pass.
	for p := lo; p < hi; p++ {
		clear(s.counts[p][:])
	}
	loW2, hiW2 := min(lo, dstPass), min(hi, dstPass)
	loW1, hiW1 := max(lo, dstPass), max(hi, dstPass)
	counts := &s.counts
	for _, r := range s.buf {
		for p := loW2; p < hiW2; p++ {
			counts[p][byte(r.w2>>(8*p))]++
		}
		for p := loW1; p < hiW1; p++ {
			counts[p][byte(r.w1>>(8*(p-dstPass)))]++
		}
	}

	s.alt = slices.Grow(s.alt[:0], n)[:n]
	src, dst := s.buf, s.alt
	for p := lo; p < hi; p++ {
		c := &s.counts[p]
		// Uniform byte: the pass is the identity permutation.
		if c[src[0].keyByte(p)] == uint32(n) {
			continue
		}
		var sum uint32
		for b := range c {
			cnt := c[b]
			c[b] = sum
			sum += cnt
		}
		for _, r := range src {
			b := r.keyByte(p)
			dst[c[b]] = r
			c[b]++
		}
		src, dst = dst, src
	}
	s.buf, s.alt = src, dst
}

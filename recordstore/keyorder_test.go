package recordstore

import "repro/flow"

// radixMinLen mirrors flow.SortByKey's comparison-sort threshold, so the
// encoder equivalence cases straddle both of its sort paths.
const radixMinLen = 192

// lessWords is the reference packed-key order: the seed encoder's sort and
// the stored-order checks compare against it.
func lessWords(a, b flow.Key) bool {
	a1, a2 := a.Words()
	b1, b2 := b.Words()
	if a1 != b1 {
		return a1 < b1
	}
	return a2 < b2
}

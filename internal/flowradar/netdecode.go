package flowradar

import "repro/flow"

// Network-wide decoding (NetDecode, §4.2 of the FlowRadar paper): when a
// switch's counting table is too loaded for standalone peeling, flow
// records already decoded at *other* switches rescue it. A flow's packets
// traverse every switch on its path, so a record decoded at switch B gives
// both the flow ID and its packet count at switch A. Membership is checked
// against A's Bloom filter; confirmed records are subtracted from the
// coded flow set (FlowDecode + CounterDecode), after which any remaining
// flows peel by the standard singleton rule.

// MightContain reports whether the flow passed this recorder according to
// its Bloom filter (with the filter's false-positive rate).
func (fr *FlowRadar) MightContain(k flow.Key) bool {
	w1, w2 := k.Words()
	return fr.bloom.Contains(w1, w2)
}

// workCell mirrors a counting cell with signed counts, so that subtracting
// a Bloom-false-positive hint is detectable as a negative value instead of
// an unsigned underflow.
type workCell struct {
	xor flow.Key
	fc  int32
	pc  int64
}

// DecodeWithHints runs NetDecode: hints are flow records decoded at other
// switches on shared paths. It returns the recovered records and whether
// the decode fully drained the table — in which case the result is exact
// and complete.
//
// Two FlowRadar artifacts are handled explicitly:
//
//   - A flow whose first packet hit an insert-time Bloom false positive
//     was counted but never ID-encoded. The set of such flows is itself
//     recovered by peeling the *deficit* between the hint population and
//     the stored flow counts (another coded-set decode), and only their
//     counts are subtracted.
//   - A hint that never passed this switch (lookup false positive) or
//     whose count disagrees (divergent path) drives a packet counter
//     negative when subtracted, and is rejected.
func (fr *FlowRadar) DecodeWithHints(hints []flow.Record) ([]flow.Record, bool) {
	// Accept Bloom-confirmed, deduplicated hints in a normalized order so
	// the decode is deterministic.
	seen := make(map[flow.Key]struct{}, len(hints))
	accepted := make([]flow.Record, 0, len(hints))
	for _, r := range hints {
		if _, dup := seen[r.Key]; dup {
			continue
		}
		seen[r.Key] = struct{}{}
		if fr.MightContain(r.Key) {
			accepted = append(accepted, r)
		}
	}
	flow.SortByKey(accepted)

	// Deficit decode: cell by cell, (hints mapping here) − (flows encoded
	// here) forms a coded set containing exactly the accepted hints that
	// were never ID-encoded (insert-time false positives, plus lookup
	// false positives that never passed at all). Peel it.
	type deficitCell struct {
		xor flow.Key
		n   int32
	}
	deficit := make([]deficitCell, len(fr.cells))
	for i := range fr.cells {
		deficit[i] = deficitCell{xor: fr.cells[i].flowXOR, n: -int32(fr.cells[i].flowCount)}
	}
	var posBuf [8]uint64
	for _, r := range accepted {
		w1, w2 := r.Key.Words()
		for _, p := range fr.positions(w1, w2, posBuf[:0]) {
			deficit[p].xor = deficit[p].xor.XOR(r.Key)
			deficit[p].n++
		}
	}
	notEncoded := make(map[flow.Key]struct{})
	for changed := true; changed; {
		changed = false
		for i := range deficit {
			if deficit[i].n != 1 {
				continue
			}
			k := deficit[i].xor
			if _, isHint := seen[k]; !isHint {
				continue
			}
			if _, done := notEncoded[k]; done {
				continue
			}
			notEncoded[k] = struct{}{}
			w1, w2 := k.Words()
			for _, p := range fr.positions(w1, w2, posBuf[:0]) {
				deficit[p].xor = deficit[p].xor.XOR(k)
				deficit[p].n--
			}
			changed = true
		}
	}

	// Subtract the accepted hints: counts always, IDs only when encoded.
	work := make([]workCell, len(fr.cells))
	for i := range fr.cells {
		work[i] = workCell{
			xor: fr.cells[i].flowXOR,
			fc:  int32(fr.cells[i].flowCount),
			pc:  int64(fr.cells[i].packetCount),
		}
	}
	applyID := func(k flow.Key, sign int32) {
		w1, w2 := k.Words()
		for _, p := range fr.positions(w1, w2, posBuf[:0]) {
			work[p].xor = work[p].xor.XOR(k)
			work[p].fc += sign
		}
	}
	applyCount := func(r flow.Record, sign int64) {
		w1, w2 := r.Key.Words()
		for _, p := range fr.positions(w1, w2, posBuf[:0]) {
			work[p].pc += sign * int64(r.Count)
		}
	}
	anyNegPC := func(k flow.Key) bool {
		w1, w2 := k.Words()
		for _, p := range fr.positions(w1, w2, posBuf[:0]) {
			if work[p].pc < 0 {
				return true
			}
		}
		return false
	}

	out := make([]flow.Record, 0, len(accepted))
	for _, r := range accepted {
		_, skipID := notEncoded[r.Key]
		if !skipID {
			applyID(r.Key, -1)
		}
		applyCount(r, -1)
		if anyNegPC(r.Key) {
			// Lookup false positive or divergent-path count: reject.
			applyCount(r, 1)
			if !skipID {
				applyID(r.Key, 1)
			}
			delete(seen, r.Key)
			continue
		}
		out = append(out, r)
	}

	// Peel the remaining flows by the usual singleton rule; their counts
	// are exact because all hinted mass has been subtracted.
	queue := make([]int, 0, len(work))
	for i := range work {
		if work[i].fc == 1 {
			queue = append(queue, i)
		}
	}
	for len(queue) > 0 {
		idx := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if work[idx].fc != 1 {
			continue
		}
		k := work[idx].xor
		pkts := work[idx].pc
		if pkts < 0 {
			continue
		}
		w1, w2 := k.Words()
		pos := fr.positions(w1, w2, posBuf[:0])
		owns := false
		for _, p := range pos {
			if int(p) == idx {
				owns = true
				break
			}
		}
		if !owns {
			continue
		}
		rec := flow.Record{Key: k, Count: uint32(pkts)}
		applyID(k, -1)
		applyCount(rec, -1)
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			out = append(out, rec)
		}
		for _, p := range pos {
			if work[p].fc == 1 {
				queue = append(queue, int(p))
			}
		}
	}

	// Complete iff every cell drained to zero flows and zero packets.
	for i := range work {
		if work[i].fc != 0 || work[i].pc != 0 {
			return out, false
		}
	}
	return out, true
}

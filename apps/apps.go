// Package apps implements the traffic-analysis applications that motivate
// flow record collection in the paper's introduction: top-talker ranking,
// heavy-hitter reporting, DDoS victim detection, port-scan detection and
// prefix-level traffic matrices. Every application consumes plain
// []flow.Record, so it runs identically on exact NetFlow records and on the
// approximate records any flowmon.Recorder reports.
package apps

import (
	"slices"
	"sort"

	"repro/flow"
)

// TopTalkers returns the k largest flows by packet count, descending, with
// deterministic tie-breaking on the key encoding.
func TopTalkers(records []flow.Record, k int) []flow.Record {
	out := make([]flow.Record, len(records))
	copy(out, records)
	slices.SortFunc(out, flow.CompareByCount)
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// HeavyHitters returns all flows with at least threshold packets,
// descending by count.
func HeavyHitters(records []flow.Record, threshold uint32) []flow.Record {
	var out []flow.Record
	for _, r := range records {
		if r.Count >= threshold {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, flow.CompareByCount)
	return out
}

// Victim is a destination receiving traffic from many distinct sources —
// the signature of a volumetric DDoS attack or a flash crowd.
type Victim struct {
	DstIP   uint32
	Sources int    // distinct source IPs
	Packets uint64 // total packets toward the destination
}

// DDoSVictims reports destinations contacted by at least minSources
// distinct source IPs, descending by source count.
func DDoSVictims(records []flow.Record, minSources int) []Victim {
	type agg struct {
		srcs map[uint32]struct{}
		pkts uint64
	}
	byDst := make(map[uint32]*agg)
	for _, r := range records {
		a := byDst[r.Key.DstIP]
		if a == nil {
			a = &agg{srcs: make(map[uint32]struct{})}
			byDst[r.Key.DstIP] = a
		}
		a.srcs[r.Key.SrcIP] = struct{}{}
		a.pkts += uint64(r.Count)
	}
	var out []Victim
	for dst, a := range byDst {
		if len(a.srcs) >= minSources {
			out = append(out, Victim{DstIP: dst, Sources: len(a.srcs), Packets: a.pkts})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sources != out[j].Sources {
			return out[i].Sources > out[j].Sources
		}
		return out[i].DstIP < out[j].DstIP
	})
	return out
}

// Scanner is a source probing many distinct (destination, port) pairs —
// the signature of horizontal or vertical scanning.
type Scanner struct {
	SrcIP   uint32
	Targets int // distinct (dstIP, dstPort) pairs
}

// PortScanners reports sources that touched at least minTargets distinct
// (destination IP, destination port) pairs, descending by target count.
func PortScanners(records []flow.Record, minTargets int) []Scanner {
	type target struct {
		ip   uint32
		port uint16
	}
	bySrc := make(map[uint32]map[target]struct{})
	for _, r := range records {
		m := bySrc[r.Key.SrcIP]
		if m == nil {
			m = make(map[target]struct{})
			bySrc[r.Key.SrcIP] = m
		}
		m[target{ip: r.Key.DstIP, port: r.Key.DstPort}] = struct{}{}
	}
	var out []Scanner
	for src, m := range bySrc {
		if len(m) >= minTargets {
			out = append(out, Scanner{SrcIP: src, Targets: len(m)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Targets != out[j].Targets {
			return out[i].Targets > out[j].Targets
		}
		return out[i].SrcIP < out[j].SrcIP
	})
	return out
}

// MatrixCell is one prefix-pair entry of a traffic matrix.
type MatrixCell struct {
	SrcPrefix uint32 // network-order prefix, host bits zeroed
	DstPrefix uint32
	Packets   uint64
	Flows     int
}

// TrafficMatrix aggregates flow records into source-prefix x dest-prefix
// cells at the given prefix length (0..32), descending by packets. Traffic
// engineering consumes exactly this view.
func TrafficMatrix(records []flow.Record, prefixLen int) []MatrixCell {
	if prefixLen < 0 {
		prefixLen = 0
	}
	if prefixLen > 32 {
		prefixLen = 32
	}
	var mask uint32
	if prefixLen > 0 {
		mask = ^uint32(0) << (32 - prefixLen)
	}
	type pair struct{ src, dst uint32 }
	cells := make(map[pair]*MatrixCell)
	for _, r := range records {
		p := pair{src: r.Key.SrcIP & mask, dst: r.Key.DstIP & mask}
		c := cells[p]
		if c == nil {
			c = &MatrixCell{SrcPrefix: p.src, DstPrefix: p.dst}
			cells[p] = c
		}
		c.Packets += uint64(r.Count)
		c.Flows++
	}
	out := make([]MatrixCell, 0, len(cells))
	for _, c := range cells {
		out = append(out, *c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Packets != out[j].Packets {
			return out[i].Packets > out[j].Packets
		}
		if out[i].SrcPrefix != out[j].SrcPrefix {
			return out[i].SrcPrefix < out[j].SrcPrefix
		}
		return out[i].DstPrefix < out[j].DstPrefix
	})
	return out
}

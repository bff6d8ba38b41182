package trace

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/flow"
	"repro/internal/fenwick"
)

// Trace is a synthetic trace: a fixed flow population with exact per-flow
// packet counts. Packet streams are derived from it deterministically.
type Trace struct {
	// Profile is the generating profile.
	Profile Profile
	// Flows holds every flow with its exact packet count, in descending
	// size order.
	Flows []flow.Record

	totalPkts uint64
}

// Generate builds a trace with the given number of flows. The same
// (profile, flows, seed) triple always yields the identical trace.
func Generate(p Profile, flows int, seed uint64) (*Trace, error) {
	if flows <= 0 {
		return nil, fmt.Errorf("trace: flow count must be positive, got %d", flows)
	}
	if p.S < 0 || p.MeanPkts < 1 {
		return nil, fmt.Errorf("trace: profile %q needs S >= 0 and mean >= 1", p.Name)
	}
	sizes := zipfSizes(flows, p.S, p.MeanPkts)
	rng := rand.New(rand.NewPCG(seed, 0x7ace))
	keys := distinctKeys(flows, rng)

	t := &Trace{Profile: p, Flows: make([]flow.Record, flows)}
	for i := range sizes {
		t.Flows[i] = flow.Record{Key: keys[i], Count: sizes[i]}
		t.totalPkts += uint64(sizes[i])
	}
	return t, nil
}

// zipfSizes returns flows packet counts following size(i) = max(1,
// round(c·(i+1)^−s)) with c calibrated by bisection so the mean matches
// target.
func zipfSizes(flows int, s, target float64) []uint32 {
	ranks := make([]float64, flows)
	for i := range ranks {
		ranks[i] = math.Pow(float64(i+1), -s)
	}
	mean := func(c float64) float64 {
		var sum float64
		for _, r := range ranks {
			v := math.Round(c * r)
			if v < 1 {
				v = 1
			}
			sum += v
		}
		return sum / float64(flows)
	}
	// Bracket the scale, then bisect. mean(c) is monotone non-decreasing.
	lo, hi := 0.0, 1.0
	for mean(hi) < target && hi < 1e15 {
		hi *= 2
	}
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if mean(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	sizes := make([]uint32, flows)
	for i, r := range ranks {
		v := math.Round(hi * r)
		if v < 1 {
			v = 1
		}
		if v > math.MaxUint32 {
			v = math.MaxUint32
		}
		sizes[i] = uint32(v)
	}
	return sizes
}

// distinctKeys draws flows distinct random 5-tuples.
func distinctKeys(flows int, rng *rand.Rand) []flow.Key {
	seen := make(map[flow.Key]struct{}, flows)
	keys := make([]flow.Key, 0, flows)
	for len(keys) < flows {
		k := randomKey(rng)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		keys = append(keys, k)
	}
	return keys
}

func randomKey(rng *rand.Rand) flow.Key {
	proto := uint8(6) // TCP
	switch rng.IntN(10) {
	case 0, 1, 2: // ~30% UDP
		proto = 17
	case 3:
		proto = 1 // a little ICMP
	}
	return flow.Key{
		SrcIP:   rng.Uint32(),
		DstIP:   rng.Uint32(),
		SrcPort: uint16(rng.Uint32()),
		DstPort: uint16(rng.Uint32()),
		Proto:   proto,
	}
}

// FromPackets reconstructs a Trace (exact flow population) from an observed
// packet stream, e.g. one read back from a pcap file. The resulting trace
// carries the given profile only as a label.
func FromPackets(p Profile, pkts []flow.Packet) *Trace {
	counts := make(map[flow.Key]uint32)
	for _, pk := range pkts {
		counts[pk.Key]++
	}
	t := &Trace{Profile: p, Flows: make([]flow.Record, 0, len(counts))}
	for k, c := range counts {
		t.Flows = append(t.Flows, flow.Record{Key: k, Count: c})
		t.totalPkts += uint64(c)
	}
	// Keep the descending-size invariant Generate establishes.
	slices.SortFunc(t.Flows, flow.CompareByCount)
	return t
}

// FlowCount returns the number of flows in the trace.
func (t *Trace) FlowCount() int { return len(t.Flows) }

// PacketCount returns the total number of packets in the trace.
func (t *Trace) PacketCount() uint64 { return t.totalPkts }

// Truth returns a ground-truth accumulator pre-filled with the trace's
// exact flow counts.
func (t *Trace) Truth() *flow.Truth {
	truth := flow.NewTruth(len(t.Flows))
	for _, f := range t.Flows {
		for i := uint32(0); i < f.Count; i++ {
			truth.Observe(flow.Packet{Key: f.Key})
		}
	}
	return truth
}

// Packets materializes the full packet stream in a uniformly random
// interleaving (Fisher–Yates over all packets). Packet sizes are drawn from
// a simple bimodal mix of small (ACK-like) and full-size packets.
func (t *Trace) Packets(seed uint64) []flow.Packet {
	pkts := make([]flow.Packet, 0, t.totalPkts)
	rng := rand.New(rand.NewPCG(seed, 0x9ac4e7))
	for _, f := range t.Flows {
		for i := uint32(0); i < f.Count; i++ {
			pkts = append(pkts, flow.Packet{Key: f.Key, Size: packetSize(rng)})
		}
	}
	rng2 := rand.New(rand.NewPCG(seed, 0x5f0e11e))
	for i := len(pkts) - 1; i > 0; i-- {
		j := rng2.IntN(i + 1)
		pkts[i], pkts[j] = pkts[j], pkts[i]
	}
	return pkts
}

func packetSize(rng *rand.Rand) uint16 {
	if rng.IntN(2) == 0 {
		return uint16(64 + rng.IntN(200))
	}
	return uint16(1000 + rng.IntN(500))
}

// Stream returns a deterministic streaming iterator over the same random
// interleaving family, using O(flows) memory instead of materializing all
// packets. Each call to Next picks a uniformly random remaining packet.
func (t *Trace) Stream(seed uint64) *Stream {
	weights := make([]uint64, len(t.Flows))
	for i, f := range t.Flows {
		weights[i] = uint64(f.Count)
	}
	return &Stream{
		t:         t,
		remaining: fenwick.New(weights),
		left:      t.totalPkts,
		rng:       rand.New(rand.NewPCG(seed, 0x57e4a)),
	}
}

// Stream yields the packets of a Trace one at a time in random order.
type Stream struct {
	t         *Trace
	remaining *fenwick.Tree
	left      uint64
	rng       *rand.Rand
}

// Next returns the next packet. ok is false once the stream is exhausted.
func (s *Stream) Next() (p flow.Packet, ok bool) {
	if s.left == 0 {
		return flow.Packet{}, false
	}
	target := s.rng.Uint64N(s.left)
	idx := s.remaining.FindPrefix(target)
	s.remaining.Add(idx, -1)
	s.left--
	return flow.Packet{Key: s.t.Flows[idx].Key, Size: packetSize(s.rng)}, true
}

// Remaining returns how many packets are left in the stream.
func (s *Stream) Remaining() uint64 { return s.left }

package recordstore

import (
	"fmt"
	"math"
	"net/netip"
	"strconv"
	"strings"

	"repro/flow"
)

// Filter selects flow records. The zero value matches everything; set
// fields constrain the match.
type Filter struct {
	// SrcIP / DstIP match exact addresses when non-zero.
	SrcIP, DstIP uint32
	// SrcPort / DstPort match exact ports when non-zero.
	SrcPort, DstPort uint16
	// Proto matches the protocol number when non-zero.
	Proto uint8
	// MinPackets drops records below this count.
	MinPackets uint32
}

// String renders the filter as the canonical expression ParseFilter
// accepts, with terms in a fixed order (src, dst, sport, dport, proto,
// minpkts) and unset fields omitted. ParseFilter(f.String()) == f for
// every filter, the round-trip the query layer's fuzz target pins.
func (f Filter) String() string {
	var b strings.Builder
	term := func(key, val string) {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(key)
		b.WriteByte('=')
		b.WriteString(val)
	}
	if f.SrcIP != 0 {
		term("src", flow.IPString(f.SrcIP))
	}
	if f.DstIP != 0 {
		term("dst", flow.IPString(f.DstIP))
	}
	if f.SrcPort != 0 {
		term("sport", strconv.FormatUint(uint64(f.SrcPort), 10))
	}
	if f.DstPort != 0 {
		term("dport", strconv.FormatUint(uint64(f.DstPort), 10))
	}
	if f.Proto != 0 {
		term("proto", strconv.FormatUint(uint64(f.Proto), 10))
	}
	if f.MinPackets != 0 {
		term("minpkts", strconv.FormatUint(uint64(f.MinPackets), 10))
	}
	return b.String()
}

// Match reports whether the record satisfies every set constraint.
func (f Filter) Match(r flow.Record) bool {
	w1, w2 := r.Key.Words()
	return f.matchWords(w1, w2, r.Count)
}

// matchWords is the filter rule on a record's packed key words
// (flow.Key.Words) and count. Decoders apply it before building a
// record, and Match applies it to built ones, so the two cannot differ.
func (f Filter) matchWords(w1, w2 uint64, count uint32) bool {
	switch {
	case f.SrcIP != 0 && uint32(w1>>32) != f.SrcIP:
		return false
	case f.DstIP != 0 && uint32(w1) != f.DstIP:
		return false
	case f.SrcPort != 0 && uint16(w2>>24) != f.SrcPort:
		return false
	case f.DstPort != 0 && uint16(w2>>8) != f.DstPort:
		return false
	case f.Proto != 0 && uint8(w2) != f.Proto:
		return false
	case count < f.MinPackets:
		return false
	}
	return true
}

// keyRange bounds the first packed key word (source address, then
// destination) of every record the filter can match: [0, MaxUint64]
// unless a source address is set.
func (f Filter) keyRange() (lo, hi uint64) {
	if f.SrcIP == 0 {
		return 0, math.MaxUint64
	}
	src := uint64(f.SrcIP) << 32
	if f.DstIP != 0 {
		return src | uint64(f.DstIP), src | uint64(f.DstIP)
	}
	return src, src | math.MaxUint32
}

// Apply returns the records matching the filter, preserving order.
func (f Filter) Apply(records []flow.Record) []flow.Record {
	var out []flow.Record
	for _, r := range records {
		if f.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

// ParseFilter builds a Filter from a comma-separated expression like
// "src=10.0.0.1,dport=443,proto=6,minpkts=100". An empty expression yields
// the match-all filter.
func ParseFilter(expr string) (Filter, error) {
	var f Filter
	if strings.TrimSpace(expr) == "" {
		return f, nil
	}
	for _, part := range strings.Split(expr, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return Filter{}, fmt.Errorf("recordstore: bad filter term %q", part)
		}
		key, val := strings.ToLower(strings.TrimSpace(kv[0])), strings.TrimSpace(kv[1])
		switch key {
		case "src", "dst":
			addr, err := netip.ParseAddr(val)
			if err != nil || !addr.Is4() {
				return Filter{}, fmt.Errorf("recordstore: %s wants an IPv4 address, got %q", key, val)
			}
			b := addr.As4()
			ip := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
			if key == "src" {
				f.SrcIP = ip
			} else {
				f.DstIP = ip
			}
		case "sport", "dport":
			p, err := strconv.ParseUint(val, 10, 16)
			if err != nil {
				return Filter{}, fmt.Errorf("recordstore: bad port %q", val)
			}
			if key == "sport" {
				f.SrcPort = uint16(p)
			} else {
				f.DstPort = uint16(p)
			}
		case "proto":
			p, err := strconv.ParseUint(val, 10, 8)
			if err != nil {
				return Filter{}, fmt.Errorf("recordstore: bad protocol %q", val)
			}
			f.Proto = uint8(p)
		case "minpkts":
			p, err := strconv.ParseUint(val, 10, 32)
			if err != nil {
				return Filter{}, fmt.Errorf("recordstore: bad minpkts %q", val)
			}
			f.MinPackets = uint32(p)
		default:
			return Filter{}, fmt.Errorf("recordstore: unknown filter key %q", key)
		}
	}
	return f, nil
}

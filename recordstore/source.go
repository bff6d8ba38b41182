// The unified read API of the store layer. Every way an epoch history can
// be materialized — a flat streamed file, an mmap-indexed file, a tiered
// directory with compressed cold segments and rollups — serves reads
// through one interface, EpochSource, so the query layer, detection
// seeding, and tooling never hard-code a concrete store type. Open is the
// matching constructor: it auto-detects what lives at a path and returns
// the right source.
package recordstore

import (
	"fmt"
	"os"
	"time"

	"repro/flow"
)

// EpochSource is the unified read surface over a stored epoch history.
// Epochs are addressed by a dense index [0, Epochs()) in time order,
// regardless of which tier (hot file, compressed cold segment, rollup)
// physically holds them. *Mapped and the tiered reader implement it.
//
// Implementations must be safe for concurrent readers as long as each
// call site passes its own dst buffer to AppendEpochAt or
// AppendEpochMatching.
type EpochSource interface {
	// Epochs returns how many epochs the source serves.
	Epochs() int
	// EpochTime returns epoch i's export timestamp without decoding
	// records.
	EpochTime(i int) time.Time
	// EpochLen returns epoch i's record count without decoding records.
	EpochLen(i int) int
	// AppendEpochAt decodes epoch i with its records appended to dst;
	// it is AppendEpochMatching with the zero Filter.
	AppendEpochAt(i int, dst []flow.Record) (Epoch, error)
	// AppendEpochMatching decodes only the records of epoch i that match
	// f, appended to dst in stored (key) order: the same records as
	// f.Apply over AppendEpochAt, without building the rest. Cold tiers
	// skip inflating pieces whose key range cannot match.
	AppendEpochMatching(i int, f Filter, dst []flow.Record) (Epoch, error)
	// Range returns the half-open index interval [lo, hi) of epochs whose
	// timestamp t satisfies t0 <= t < t1 (zero t1 = unbounded), found by
	// binary search over per-epoch metadata — never by decoding.
	Range(t0, t1 time.Time) (lo, hi int)
	// Close releases the source. Epochs decoded from it must not be used
	// afterwards.
	Close() error
}

// EpochWriter is the write half of the store API: recordstore.Writer
// (flat file) and Tiered (directory with compaction) both implement it,
// so sinks like collector.EpochStore work against either.
type EpochWriter interface {
	WriteEpoch(ts time.Time, records []flow.Record) error
	Flush() error
}

// EpochInfo is per-epoch metadata beyond the EpochSource basics: which
// tier holds the epoch and, for rollups, what was folded into it.
type EpochInfo struct {
	// Time is the epoch's export timestamp (for rollups, the first source
	// epoch's timestamp).
	Time time.Time
	// Records is the stored record count.
	Records int
	// Tier is "hot", "cold", or "rollup".
	Tier string
	// Span is how many source epochs the entry covers (1 except rollups).
	Span int
	// TotalRecords is the record count across the covered source epochs
	// before any rollup tail drop (== Records outside rollups).
	TotalRecords uint64
	// TotalPackets is the packet total across the covered source epochs;
	// exact even for rollups, whose per-flow tail is dropped.
	TotalPackets uint64
}

// InfoSource is the optional EpochSource extension serving tier metadata;
// the query layer type-asserts it to label /epochs entries.
type InfoSource interface {
	EpochInfo(i int) EpochInfo
}

// TruncatedSource is the optional EpochSource extension reporting a
// torn final frame (a store still being appended to).
type TruncatedSource interface {
	Truncated() bool
}

// Open auto-detects the store at path and returns its read source: a
// directory opens as a tiered store (hot file + cold/rollup segments per
// its manifest), anything else as a memory-mapped flat store. This is the
// one constructor call sites should use; constructing Reader or Mapped
// directly couples them to a single tier layout.
func Open(path string) (EpochSource, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return OpenTieredSource(path)
	}
	return OpenMapped(path)
}

// EpochInfo implements InfoSource for the flat mapped store: every epoch
// is hot-tier.
func (m *Mapped) EpochInfo(i int) EpochInfo {
	meta := m.metas[i]
	return EpochInfo{
		Time:         time.Unix(0, meta.nanos).UTC(),
		Records:      meta.count,
		Tier:         "hot",
		Span:         1,
		TotalRecords: uint64(meta.count),
	}
}

// SourceRange is a convenience over Range clamping an explicit epoch
// index against the source bounds; shared by query handlers.
func SourceRange(src EpochSource, epoch int, from, to time.Time) (lo, hi int, err error) {
	lo, hi = 0, src.Epochs()
	if !from.IsZero() || !to.IsZero() {
		lo, hi = src.Range(from, to)
	}
	if epoch >= 0 {
		if epoch >= src.Epochs() {
			return 0, 0, fmt.Errorf("epoch %d out of range [0,%d)", epoch, src.Epochs())
		}
		lo, hi = epoch, epoch+1
	}
	return lo, hi, nil
}

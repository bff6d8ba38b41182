// Mapped store: the random-access read path. Instead of streaming a store
// file through bufio (one pass, one copy per epoch body), OpenMapped maps
// the file into memory, builds a per-epoch offset index in one header-only
// scan, and decodes any epoch directly from the mapped bytes — no
// syscalls, no body copy, and no need to replay earlier epochs to reach a
// later one. Historical queries (flowqueryd's /flows, /epochs) address
// epochs by index or by time range without touching the rest of the file.
package recordstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/flow"
)

// epochMeta is one indexed epoch: where its frame body lives in the
// mapped data and the header fields every listing needs.
type epochMeta struct {
	off   int   // body offset (after the frame length varint)
	size  int   // body length in bytes
	nanos int64 // header timestamp
	count int   // header record count
}

// Mapped is a record store opened for random access. The epoch index is
// built once on open; decoding methods are safe for concurrent use (they
// only read the mapped bytes and caller-provided buffers).
type Mapped struct {
	data  []byte
	metas []epochMeta
	unmap func() error
	trunc bool // file ended inside an epoch frame (live writer tail)
}

// OpenMapped maps the store file at path and indexes its epochs. A
// truncated final epoch frame — the normal state of a store still being
// written — is tolerated: the index stops before it and Truncated reports
// the condition. Close releases the mapping.
//
// Calling OpenMapped directly is deprecated outside this package: it
// only understands the flat hot-file layout. Call sites should use
// recordstore.Open, which auto-detects flat files and tiered
// directories and returns either through the same EpochSource surface.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("recordstore: map %s: %w", path, err)
	}
	m, err := newMapped(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return m, nil
}

// NewMappedBytes indexes an in-memory store image (testing, fuzzing, or a
// store already held in memory). The returned Mapped references data
// directly; Close is a no-op.
func NewMappedBytes(data []byte) (*Mapped, error) {
	return newMapped(data, nil)
}

func newMapped(data []byte, unmap func() error) (*Mapped, error) {
	m := &Mapped{data: data, unmap: unmap}
	if len(data) < len(magic)+1 {
		return nil, ErrNotStore
	}
	if string(data[:len(magic)]) != magic {
		return nil, ErrNotStore
	}
	if data[len(magic)] != version {
		return nil, fmt.Errorf("recordstore: unsupported version %d", data[len(magic)])
	}
	if err := m.buildIndex(len(magic) + 1); err != nil {
		return nil, err
	}
	return m, nil
}

// buildIndex scans the epoch frames once, reading only the frame length
// and the two header varints of each epoch and skipping the record
// stream. A frame that runs past the end of the data marks a truncated
// tail and ends the index.
func (m *Mapped) buildIndex(off int) error {
	for off < len(m.data) {
		size, n := binary.Uvarint(m.data[off:])
		if n <= 0 || size >= 1<<31 {
			// An unterminated or absurd length varint at the tail is a
			// partial frame still being written; mid-file it is corruption,
			// but the two are indistinguishable without a footer. Stop.
			m.trunc = true
			return nil
		}
		body := off + n
		if body+int(size) > len(m.data) {
			m.trunc = true
			return nil
		}
		frame := m.data[body : body+int(size)]
		nanos, hn := binary.Uvarint(frame)
		if hn <= 0 {
			return fmt.Errorf("recordstore: epoch %d: corrupt timestamp", len(m.metas))
		}
		count, cn := binary.Uvarint(frame[hn:])
		if cn <= 0 {
			return fmt.Errorf("recordstore: epoch %d: corrupt record count", len(m.metas))
		}
		if err := checkRecordCount(count, len(frame)-hn-cn); err != nil {
			return fmt.Errorf("recordstore: epoch %d: %w", len(m.metas), err)
		}
		m.metas = append(m.metas, epochMeta{
			off:   body,
			size:  int(size),
			nanos: int64(nanos),
			count: int(count),
		})
		off = body + int(size)
	}
	return nil
}

// Epochs returns how many complete epochs the store holds.
func (m *Mapped) Epochs() int { return len(m.metas) }

// Truncated reports whether the file ended inside an epoch frame (a store
// still being appended to); the partial frame is not indexed.
func (m *Mapped) Truncated() bool { return m.trunc }

// Size returns the mapped data length in bytes.
func (m *Mapped) Size() int { return len(m.data) }

// EpochTime returns epoch i's export timestamp without decoding records.
func (m *Mapped) EpochTime(i int) time.Time {
	return time.Unix(0, m.metas[i].nanos).UTC()
}

// EpochLen returns epoch i's record count without decoding records.
func (m *Mapped) EpochLen(i int) int { return m.metas[i].count }

// EpochAt decodes epoch i. It allocates the record slice; use
// AppendEpochAt with a reused buffer on hot query paths.
func (m *Mapped) EpochAt(i int) (Epoch, error) {
	return m.AppendEpochAt(i, nil)
}

// AppendEpochAt decodes epoch i with its records appended to dst —
// exactly the records Reader.ReadEpochAppend yields for the same epoch
// (both run the same decoder). Decoding reads the mapped bytes in place,
// so a reused dst makes the call allocation-free once grown. Safe for
// concurrent use with distinct dst buffers.
func (m *Mapped) AppendEpochAt(i int, dst []flow.Record) (Epoch, error) {
	return m.AppendEpochMatching(i, Filter{}, dst)
}

// AppendEpochMatching decodes the records of epoch i that match f,
// appended to dst. Every record is decoded and validated, but only
// matching ones are built into dst.
func (m *Mapped) AppendEpochMatching(i int, f Filter, dst []flow.Record) (Epoch, error) {
	if i < 0 || i >= len(m.metas) {
		return Epoch{}, fmt.Errorf("recordstore: epoch %d out of range [0,%d)", i, len(m.metas))
	}
	meta := m.metas[i]
	return decodeEpochBody(m.data[meta.off:meta.off+meta.size], f, dst)
}

// Range returns the half-open index interval [lo, hi) of epochs whose
// timestamp t satisfies t0 <= t < t1: the lower bound is inclusive, the
// upper bound exclusive, so adjacent windows (t1 == next t0) tile the
// store without overlap or gap. This is the convention the query layer's
// from=/to= parameters expose verbatim. Collectors append epochs in
// export order, so timestamps are non-decreasing and the bounds are
// found by binary search; a zero t1 means "no upper bound".
func (m *Mapped) Range(t0, t1 time.Time) (lo, hi int) {
	n0 := t0.UnixNano()
	lo = m.searchNanos(n0)
	if t1.IsZero() {
		return lo, len(m.metas)
	}
	return lo, m.searchNanos(t1.UnixNano())
}

// searchNanos returns the first epoch index with timestamp >= nanos.
func (m *Mapped) searchNanos(nanos int64) int {
	lo, hi := 0, len(m.metas)
	for lo < hi {
		mid := (lo + hi) / 2
		if m.metas[mid].nanos < nanos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Close releases the mapping. The Mapped (and any Epoch decoded from it)
// must not be used afterwards.
func (m *Mapped) Close() error {
	m.data = nil
	m.metas = nil
	if m.unmap != nil {
		u := m.unmap
		m.unmap = nil
		return u()
	}
	return nil
}

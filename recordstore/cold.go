// Cold segments: the compressed storage tier. A segment file holds a run
// of epochs re-encoded for density rather than append speed. The hot
// format already delta/varint-codes each epoch in isolation; the cold
// format exploits the redundancy *between* epochs — a vantage's flow
// keyset barely changes from one epoch to the next, so adjacent epochs'
// sorted key streams are nearly byte-identical.
//
// Epochs are grouped into blocks. Within a block the per-record streams
// are laid out columnar — every epoch's key bytes first, then every
// epoch's count bytes — so each epoch's key stream sits directly after
// the previous epoch's inside the DEFLATE window and compresses to a
// near-reference. Per-epoch headers (timestamp, counts, stream lengths)
// stay outside the compressed stream, so listing a segment's epochs and
// answering time-range queries never inflates anything; decoding one
// epoch inflates only its block.
//
// File layout:
//
//	magic "FSEG" | version u8 | kind u8 (cold | rollup)
//	per block: uvarint frame length, then
//	    uvarint epoch count
//	    per epoch: uvarint nanos delta | count | keysLen | countsLen |
//	               span | totalRecords | totalPackets
//	    DEFLATE stream of keys_1..keys_E || counts_1..counts_E
//
// Segments are immutable: they are written to a temp file, fsynced, and
// renamed into place by the compactor, so a reader never sees a partial
// one. Any structural damage is therefore corruption, not a live tail —
// OpenSegment rejects it outright.
package recordstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"

	"repro/flow"
)

// Cold-format constants.
const (
	segMagic   = "FSEG"
	segVersion = 1

	// DefaultBlockEpochs bounds how many epochs share one DEFLATE stream:
	// the decompression unit of a random epoch read. Larger blocks
	// compress better (more cross-epoch redundancy in the window) but make
	// point reads inflate more.
	DefaultBlockEpochs = 16
	// defaultBlockBytes flushes a block early once its raw streams reach
	// this size, keeping the inflate cost of a point read bounded for
	// very large epochs.
	defaultBlockBytes = 1 << 20
)

// SegmentKind distinguishes lossless cold segments from downsampled
// rollups.
type SegmentKind uint8

const (
	// SegmentCold holds epochs byte-equivalent to their hot originals.
	SegmentCold SegmentKind = iota
	// SegmentRollup holds downsampled epochs: each entry is the exact
	// top-k of a run of source epochs plus exact aggregate totals, with
	// the per-flow tail dropped.
	SegmentRollup
)

// String names the kind the way the manifest spells it.
func (k SegmentKind) String() string {
	if k == SegmentRollup {
		return "rollup"
	}
	return "cold"
}

// ErrNotSegment is returned when data does not begin with the segment
// magic.
var ErrNotSegment = errors.New("recordstore: not a cold segment")

// SegmentEpoch is one epoch handed to a SegmentWriter. Records must be
// sorted by packed key — the order hot stores persist and decode them in.
type SegmentEpoch struct {
	// Time is the epoch's export timestamp.
	Time time.Time
	// Records are the epoch's flow records in packed-key order.
	Records []flow.Record
	// Span is how many source epochs this entry folds together; 0 or 1
	// means a plain epoch.
	Span int
	// TotalRecords / TotalPackets are the aggregate totals across the
	// folded source epochs. Zero values are filled from Records, so plain
	// cold epochs never set them.
	TotalRecords uint64
	TotalPackets uint64
}

// SegmentWriter encodes epochs into the cold segment format. Epochs
// accumulate into blocks that are compressed and framed on rotation;
// Close flushes the final block. Not safe for concurrent use.
type SegmentWriter struct {
	w    io.Writer
	kind SegmentKind

	blockEpochs int
	blockBytes  int

	started bool
	err     error

	// Pending block state.
	hdr    []byte // per-epoch header varints
	keys   []byte // concatenated key streams
	counts []byte // concatenated count streams
	epochs int    // epochs in the pending block
	last   int64  // nanos of the last epoch accepted (for header deltas)

	comp  bytes.Buffer
	flate *flate.Writer
	frame []byte
}

// NewSegmentWriter builds a writer emitting kind-flavored segments to w.
func NewSegmentWriter(w io.Writer, kind SegmentKind) *SegmentWriter {
	return &SegmentWriter{
		w:           w,
		kind:        kind,
		blockEpochs: DefaultBlockEpochs,
		blockBytes:  defaultBlockBytes,
	}
}

// SetBlockEpochs overrides how many epochs share one compression block.
func (sw *SegmentWriter) SetBlockEpochs(n int) {
	if n > 0 {
		sw.blockEpochs = n
	}
}

// Add appends one epoch to the segment. Epoch timestamps must be
// non-decreasing across Add calls and each epoch's records sorted by
// packed key; a violation fails the writer.
func (sw *SegmentWriter) Add(ep SegmentEpoch) error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.started {
		hdr := append([]byte(segMagic), segVersion, byte(sw.kind))
		if _, err := sw.w.Write(hdr); err != nil {
			return sw.fail(fmt.Errorf("recordstore: write segment header: %w", err))
		}
		sw.started = true
	}
	// Timestamps are delta-coded against the previous epoch across block
	// boundaries; the first header's delta base is zero, so it carries the
	// absolute timestamp.
	nanos := ep.Time.UnixNano()
	if nanos < sw.last {
		return sw.fail(fmt.Errorf("recordstore: segment epochs out of order (%d after %d)", nanos, sw.last))
	}

	span := ep.Span
	if span <= 0 {
		span = 1
	}
	totalRecords := ep.TotalRecords
	if totalRecords == 0 {
		totalRecords = uint64(len(ep.Records))
	}
	totalPackets := ep.TotalPackets
	if totalPackets == 0 {
		for _, r := range ep.Records {
			totalPackets += uint64(r.Count)
		}
	}

	// Encode the record streams columnar: key deltas/xors into keys,
	// counts into counts, exactly the hot encoder's per-record scheme
	// split into two streams.
	keysStart, countsStart := len(sw.keys), len(sw.counts)
	var prev1, prev2 uint64
	for i, r := range ep.Records {
		// Deltas of descending keys would wrap and decode silently into
		// a store the sorted-view merges misread. Equal keys are allowed:
		// the hot Writer does not fold duplicates either.
		if i > 0 && flow.CompareKeys(ep.Records[i-1].Key, r.Key) > 0 {
			return sw.fail(fmt.Errorf("recordstore: segment epoch records out of key order at record %d", i))
		}
		w1, w2 := r.Key.Words()
		sw.keys = binary.AppendUvarint(sw.keys, w1-prev1)
		sw.keys = binary.AppendUvarint(sw.keys, w2^prev2)
		sw.counts = binary.AppendUvarint(sw.counts, uint64(r.Count))
		prev1, prev2 = w1, w2
	}

	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(nanos-sw.last))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(len(ep.Records)))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(len(sw.keys)-keysStart))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(len(sw.counts)-countsStart))
	sw.hdr = binary.AppendUvarint(sw.hdr, uint64(span))
	sw.hdr = binary.AppendUvarint(sw.hdr, totalRecords)
	sw.hdr = binary.AppendUvarint(sw.hdr, totalPackets)
	sw.last = nanos
	sw.epochs++

	if sw.epochs >= sw.blockEpochs || len(sw.keys)+len(sw.counts) >= sw.blockBytes {
		return sw.flushBlock()
	}
	return nil
}

// flushBlock compresses and frames the pending epochs.
func (sw *SegmentWriter) flushBlock() error {
	if sw.epochs == 0 {
		return nil
	}
	sw.comp.Reset()
	if sw.flate == nil {
		fw, err := flate.NewWriter(&sw.comp, flate.DefaultCompression)
		if err != nil {
			return sw.fail(err)
		}
		sw.flate = fw
	} else {
		sw.flate.Reset(&sw.comp)
	}
	if _, err := sw.flate.Write(sw.keys); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.flate.Write(sw.counts); err != nil {
		return sw.fail(err)
	}
	if err := sw.flate.Close(); err != nil {
		return sw.fail(err)
	}

	sw.frame = sw.frame[:0]
	sw.frame = binary.AppendUvarint(sw.frame, uint64(sw.epochs))
	sw.frame = append(sw.frame, sw.hdr...)
	sw.frame = append(sw.frame, sw.comp.Bytes()...)

	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(sw.frame)))
	if _, err := sw.w.Write(lenBuf[:n]); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write block frame: %w", err))
	}
	if _, err := sw.w.Write(sw.frame); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write block frame: %w", err))
	}

	sw.hdr = sw.hdr[:0]
	sw.keys = sw.keys[:0]
	sw.counts = sw.counts[:0]
	sw.epochs = 0
	return nil
}

// Close flushes the final block. The header is written even for an
// epoch-less segment so the file is recognizably a (valid, empty) one.
func (sw *SegmentWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if !sw.started {
		hdr := append([]byte(segMagic), segVersion, byte(sw.kind))
		if _, err := sw.w.Write(hdr); err != nil {
			return sw.fail(err)
		}
		sw.started = true
	}
	return sw.flushBlock()
}

func (sw *SegmentWriter) fail(err error) error {
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// segEpochMeta is one indexed epoch of an open segment.
type segEpochMeta struct {
	nanos        int64
	count        int
	keysOff      int // offset into the block's raw (inflated) bytes
	keysLen      int
	countsOff    int
	countsLen    int
	block        int
	span         int
	totalRecords uint64
	totalPackets uint64
}

// segBlock is one compression block of an open segment.
type segBlock struct {
	compOff int // offset of the DEFLATE stream in the segment data
	compLen int
	rawLen  int // total inflated length (keys + counts)
	first   int // first epoch index in the block
	epochs  int
}

// Segment is a cold or rollup segment opened for reading. The per-epoch
// index is built once on open without inflating anything; AppendEpochAt
// inflates the target epoch's block (cached, so sequential scans inflate
// each block once). Safe for concurrent use.
type Segment struct {
	data  []byte
	unmap func() error
	kind  SegmentKind
	metas []segEpochMeta
	blks  []segBlock

	// Single-block inflate cache; guarded by mu. Queries re-open segments
	// per request, so one slot captures both sequential scans and
	// repeated point reads without a real cache policy.
	mu       sync.Mutex
	cachedIx int
	cached   []byte
}

// OpenSegment maps and indexes the segment file at path.
func OpenSegment(path string) (*Segment, error) {
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
	s, err := newSegment(data, unmap)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, fmt.Errorf("recordstore: segment %s: %w", path, err)
	}
	return s, nil
}

// OpenSegmentBytes indexes an in-memory segment image (tests, fuzzing).
func OpenSegmentBytes(data []byte) (*Segment, error) {
	return newSegment(data, nil)
}

func newSegment(data []byte, unmap func() error) (*Segment, error) {
	const hdrLen = len(segMagic) + 2
	if len(data) < hdrLen {
		return nil, ErrNotSegment
	}
	if string(data[:len(segMagic)]) != segMagic {
		return nil, ErrNotSegment
	}
	if v := data[len(segMagic)]; v != segVersion {
		return nil, fmt.Errorf("unsupported segment version %d", v)
	}
	kind := SegmentKind(data[len(segMagic)+1])
	if kind != SegmentCold && kind != SegmentRollup {
		return nil, fmt.Errorf("unknown segment kind %d", kind)
	}
	s := &Segment{data: data, unmap: unmap, kind: kind, cachedIx: -1}
	if err := s.buildIndex(hdrLen); err != nil {
		return nil, err
	}
	return s, nil
}

// buildIndex walks the block frames, decoding only headers. Segments are
// immutable once renamed into place, so unlike the hot store's live tail
// any structural damage here is fatal for the whole segment.
func (s *Segment) buildIndex(off int) error {
	var lastNanos int64
	for off < len(s.data) {
		frameLen, n := binary.Uvarint(s.data[off:])
		if n <= 0 || frameLen > uint64(len(s.data)) {
			return fmt.Errorf("corrupt block frame at byte %d", off)
		}
		body := off + n
		if body+int(frameLen) > len(s.data) {
			return fmt.Errorf("block frame at byte %d runs past the end", off)
		}
		frame := s.data[body : body+int(frameLen)]

		epochs, hn := binary.Uvarint(frame)
		if hn <= 0 || epochs == 0 || epochs > 1<<20 {
			return fmt.Errorf("corrupt epoch count in block at byte %d", off)
		}
		pos := hn
		blk := segBlock{first: len(s.metas), epochs: int(epochs)}
		var rawOff int
		hdrs := make([]segEpochMeta, 0, epochs)
		for i := uint64(0); i < epochs; i++ {
			var vals [7]uint64
			for v := range vals {
				x, vn := binary.Uvarint(frame[pos:])
				if vn <= 0 {
					return fmt.Errorf("corrupt epoch header %d in block at byte %d", i, off)
				}
				vals[v] = x
				pos += vn
			}
			if vals[1] > 1<<28 || vals[2] > 1<<31 || vals[3] > 1<<31 || vals[4] > 1<<28 {
				return fmt.Errorf("implausible epoch header %d in block at byte %d", i, off)
			}
			lastNanos += int64(vals[0])
			hdrs = append(hdrs, segEpochMeta{
				nanos:        lastNanos,
				count:        int(vals[1]),
				keysLen:      int(vals[2]),
				countsLen:    int(vals[3]),
				block:        len(s.blks),
				span:         int(vals[4]),
				totalRecords: vals[5],
				totalPackets: vals[6],
			})
			rawOff += int(vals[2]) + int(vals[3])
		}
		// Columnar layout: all key streams first, then all count streams.
		var keysOff, countsOff int
		for i := range hdrs {
			keysOff += hdrs[i].keysLen
		}
		countsOff = keysOff
		keysOff = 0
		for i := range hdrs {
			hdrs[i].keysOff = keysOff
			keysOff += hdrs[i].keysLen
			hdrs[i].countsOff = countsOff
			countsOff += hdrs[i].countsLen
		}
		blk.rawLen = rawOff
		blk.compOff = body + pos
		blk.compLen = int(frameLen) - pos
		if blk.compLen < 0 {
			return fmt.Errorf("corrupt block at byte %d: headers overrun frame", off)
		}
		// DEFLATE expands each compressed byte to at most ~1032 raw bytes
		// (a 258-byte match costs no less than two bits), so headers
		// declaring more raw data than the stream could possibly inflate
		// are corruption. Rejecting here keeps blockRaw from allocating a
		// multi-gigabyte buffer on the say-so of a tiny hostile file.
		const maxInflateRatio = 1032
		if blk.rawLen > blk.compLen*maxInflateRatio+64 {
			return fmt.Errorf("block at byte %d declares %d raw bytes from a %d-byte stream", off, blk.rawLen, blk.compLen)
		}
		s.metas = append(s.metas, hdrs...)
		s.blks = append(s.blks, blk)
		off = body + int(frameLen)
	}
	return nil
}

// Kind reports whether the segment is cold or rollup.
func (s *Segment) Kind() SegmentKind { return s.kind }

// Epochs returns how many epochs the segment holds.
func (s *Segment) Epochs() int { return len(s.metas) }

// EpochTime returns epoch i's timestamp without inflating anything.
func (s *Segment) EpochTime(i int) time.Time {
	return time.Unix(0, s.metas[i].nanos).UTC()
}

// EpochLen returns epoch i's stored record count.
func (s *Segment) EpochLen(i int) int { return s.metas[i].count }

// EpochInfo returns epoch i's tier metadata.
func (s *Segment) EpochInfo(i int) EpochInfo {
	m := s.metas[i]
	return EpochInfo{
		Time:         time.Unix(0, m.nanos).UTC(),
		Records:      m.count,
		Tier:         s.kind.String(),
		Span:         m.span,
		TotalRecords: m.totalRecords,
		TotalPackets: m.totalPackets,
	}
}

// FirstNanos / LastNanos bound the segment's epoch timestamps; zero for
// an empty segment.
func (s *Segment) FirstNanos() int64 {
	if len(s.metas) == 0 {
		return 0
	}
	return s.metas[0].nanos
}

func (s *Segment) LastNanos() int64 {
	if len(s.metas) == 0 {
		return 0
	}
	return s.metas[len(s.metas)-1].nanos
}

// AppendEpochAt decodes epoch i with its records appended to dst. The
// records are exactly the ones the hot-tier decoder yields for the same
// epoch (cold segments) or the rollup's retained top-k (rollup segments).
func (s *Segment) AppendEpochAt(i int, dst []flow.Record) (Epoch, error) {
	if i < 0 || i >= len(s.metas) {
		return Epoch{}, fmt.Errorf("recordstore: segment epoch %d out of range [0,%d)", i, len(s.metas))
	}
	meta := s.metas[i]

	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := s.blockRaw(meta.block)
	if err != nil {
		return Epoch{}, err
	}
	if meta.keysOff+meta.keysLen > len(raw) || meta.countsOff+meta.countsLen > len(raw) {
		return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: streams overrun block", i)
	}
	keys := raw[meta.keysOff : meta.keysOff+meta.keysLen]
	counts := raw[meta.countsOff : meta.countsOff+meta.countsLen]

	dst = slices.Grow(dst, meta.count)
	ep := Epoch{Time: time.Unix(0, meta.nanos).UTC(), Records: dst}
	var prev1, prev2 uint64
	for r := 0; r < meta.count; r++ {
		d1, n1 := binary.Uvarint(keys)
		if n1 <= 0 {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: corrupt key stream at record %d", i, r)
		}
		keys = keys[n1:]
		x2, n2 := binary.Uvarint(keys)
		if n2 <= 0 {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: corrupt key stream at record %d", i, r)
		}
		keys = keys[n2:]
		cnt, n3 := binary.Uvarint(counts)
		if n3 <= 0 || cnt > 0xFFFFFFFF {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: corrupt count stream at record %d", i, r)
		}
		counts = counts[n3:]

		w1 := prev1 + d1
		w2 := prev2 ^ x2
		key, err := keyFromWords(w1, w2)
		if err != nil {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d record %d: %w", i, r, err)
		}
		ep.Records = append(ep.Records, flow.Record{Key: key, Count: uint32(cnt)})
		prev1, prev2 = w1, w2
	}
	if len(keys) != 0 || len(counts) != 0 {
		return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: %d trailing stream bytes", i, len(keys)+len(counts))
	}
	return ep, nil
}

// Range mirrors Mapped.Range over the segment's epochs.
func (s *Segment) Range(t0, t1 time.Time) (lo, hi int) {
	lo = s.searchNanos(t0.UnixNano())
	if t1.IsZero() {
		return lo, len(s.metas)
	}
	return lo, s.searchNanos(t1.UnixNano())
}

func (s *Segment) searchNanos(nanos int64) int {
	lo, hi := 0, len(s.metas)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.metas[mid].nanos < nanos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// blockRaw returns block b inflated, serving repeats from the one-slot
// cache. Caller holds s.mu.
func (s *Segment) blockRaw(b int) ([]byte, error) {
	if s.cachedIx == b {
		return s.cached, nil
	}
	blk := s.blks[b]
	comp := s.data[blk.compOff : blk.compOff+blk.compLen]
	if cap(s.cached) < blk.rawLen {
		s.cached = make([]byte, blk.rawLen)
	}
	buf := s.cached[:blk.rawLen]
	s.cachedIx = -1
	fr := flate.NewReader(bytes.NewReader(comp))
	if _, err := io.ReadFull(fr, buf); err != nil {
		return nil, fmt.Errorf("recordstore: inflate block %d: %w", b, err)
	}
	// A stream with trailing garbage decodes the declared length fine; a
	// short one already failed above. Confirm it ends where the headers
	// said it would.
	var tail [1]byte
	if n, _ := fr.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("recordstore: inflate block %d: stream longer than declared", b)
	}
	s.cached = buf
	s.cachedIx = b
	return buf, nil
}

// Size returns the segment's byte length.
func (s *Segment) Size() int { return len(s.data) }

// Close releases the mapping.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = nil
	s.metas = nil
	s.blks = nil
	s.cached = nil
	s.cachedIx = -1
	if s.unmap != nil {
		u := s.unmap
		s.unmap = nil
		return u()
	}
	return nil
}

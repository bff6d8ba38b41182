// Cold segments: the compressed storage tier. A segment file holds a run
// of epochs re-encoded for density rather than append speed. The hot
// format already delta/varint-codes each epoch in isolation; the cold
// format exploits the redundancy *between* epochs — a vantage's flow
// keyset barely changes from one epoch to the next, so adjacent epochs'
// sorted key streams are nearly byte-identical.
//
// Small epochs are grouped into blocks. Within a block the per-record
// streams are laid out columnar — every epoch's key bytes first, then
// every epoch's count bytes — so each epoch's key stream sits directly
// after the previous epoch's inside the DEFLATE window and compresses to
// a near-reference. An epoch whose streams reach pieceBytes is too big
// for that: DEFLATE's 32 KiB window cannot reach back into its
// neighbour. Such an epoch is cut into pieces instead, one block each,
// and every piece restarts the key delta coding and names its first
// packed key in the clear. Records are key-sorted, so the first keys
// bound each piece's key range, and a filtered read inflates only the
// pieces whose range can hold a match. Per-entry headers (timestamp,
// counts, stream lengths, first keys) stay outside the compressed
// stream, so listing a segment's epochs and answering time-range
// queries never inflates anything.
//
// File layout (version 2):
//
//	magic "FSEG" | version u8 | kind u8 (cold | rollup)
//	per block: DEFLATE stream of keys_1..keys_E || counts_1..counts_E
//	index, per block in file order:
//	    uvarint entry count
//	    per entry, all uvarints:
//	        flag (0 whole epoch | 1 head piece | 2 continuation piece)
//	        nanos delta | span | totalRecords | totalPackets  (not on continuations)
//	        piece count                                        (head pieces only)
//	        count | keysLen | countsLen
//	        first key w1 | w2                                  (pieces only)
//	    uvarint compressed stream length
//	u32 little-endian index length
//
// Whole epochs share blocks; a head piece and its continuations each
// sit alone in their block, in key order. The head names the epoch's
// piece count, so a segment missing a piece fails to open instead of
// serving part of an epoch. The headers sit together at the end of the
// file rather than before each block: queries reopen segments per
// request, and an index spread over every ~50 KiB piece would fault in
// (with the kernel's fault-around) nearly the whole mapping on each
// open.
//
// Version 1 segments frame each block as uvarint frame length | uvarint
// entry count | headers | DEFLATE stream, with no flag or pieces: each
// entry is nanos delta | count | keysLen | countsLen | span |
// totalRecords | totalPackets. They still read, each epoch as a single
// piece with no first key.
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
	"math"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/flow"
)

// Cold-format constants.
const (
	segMagic = "FSEG"
	// segVersion is the version SegmentWriter emits. Version 1 segments
	// (no pieces) are still read.
	segVersion = 2

	// DefaultBlockEpochs bounds how many epochs share one DEFLATE stream:
	// the decompression unit of a random epoch read. Larger blocks
	// compress better (more cross-epoch redundancy in the window) but make
	// point reads inflate more.
	DefaultBlockEpochs = 16
	// defaultBlockBytes flushes a block early once its raw streams reach
	// this size, keeping the inflate cost of a point read bounded.
	defaultBlockBytes = 1 << 20
	// pieceBytes is the raw stream size at which an epoch stops sharing a
	// block and is cut into pieces of about this size, one block each.
	// At this size DEFLATE's 32 KiB window cannot reach the neighbouring
	// epoch anyway, and a piece bounds what a filtered read inflates.
	pieceBytes = 64 << 10
)

// Entry flags of a version 2 block header.
const (
	entryWhole = iota // a whole epoch sharing its block
	entryHead         // the first piece of a split epoch
	entryCont         // a later piece of the same epoch
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

// SegmentWriter encodes epochs into the cold segment format. Small epochs
// accumulate into blocks that are compressed and written on rotation;
// large ones are written at once as a run of piece blocks. Close flushes
// the final block and writes the index. Not safe for concurrent use.
type SegmentWriter struct {
	w    io.Writer
	kind SegmentKind

	blockEpochs int
	blockBytes  int

	started bool
	err     error

	// Pending block state.
	hdr    []byte // per-entry header varints
	keys   []byte // concatenated key streams
	counts []byte // concatenated count streams
	epochs int    // epochs in the pending block
	last   int64  // nanos of the last epoch accepted (for header deltas)

	cuts []segCut // piece starts of the epoch being added

	index []byte // the trailing index, written by Close

	comp  bytes.Buffer
	flate *flate.Writer
}

// segCut marks where one piece of the epoch being added starts.
type segCut struct {
	rec       int // index of the piece's first record
	keysOff   int // offset of its key stream in SegmentWriter.keys
	countsOff int // offset of its count stream in SegmentWriter.counts
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
	if err := sw.start(); err != nil {
		return err
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
	// split into two streams. A new piece starts, with the delta coding
	// restarted, once the current one holds pieceBytes.
	keysStart, countsStart := len(sw.keys), len(sw.counts)
	sw.cuts = append(sw.cuts[:0], segCut{keysOff: keysStart, countsOff: countsStart})
	cur := sw.cuts[0]
	var prev1, prev2 uint64
	for i, r := range ep.Records {
		// Deltas of descending keys would wrap and decode silently into
		// a store the sorted-view merges misread. Equal keys are allowed:
		// the hot Writer does not fold duplicates either.
		if i > 0 && flow.CompareKeys(ep.Records[i-1].Key, r.Key) > 0 {
			return sw.fail(fmt.Errorf("recordstore: segment epoch records out of key order at record %d", i))
		}
		if len(sw.keys)-cur.keysOff+len(sw.counts)-cur.countsOff >= pieceBytes {
			cur = segCut{rec: i, keysOff: len(sw.keys), countsOff: len(sw.counts)}
			sw.cuts = append(sw.cuts, cur)
			prev1, prev2 = 0, 0
		}
		w1, w2 := r.Key.Words()
		sw.keys = binary.AppendUvarint(sw.keys, w1-prev1)
		sw.keys = binary.AppendUvarint(sw.keys, w2^prev2)
		sw.counts = binary.AppendUvarint(sw.counts, uint64(r.Count))
		prev1, prev2 = w1, w2
	}

	keysLen, countsLen := len(sw.keys)-keysStart, len(sw.counts)-countsStart
	if keysLen+countsLen >= pieceBytes {
		return sw.addPieces(ep.Records, nanos, span, totalRecords, totalPackets)
	}
	sw.hdr = binary.AppendUvarint(sw.hdr, entryWhole)
	sw.hdr = appendEpochHeader(sw.hdr, uint64(nanos-sw.last), span, totalRecords, totalPackets)
	sw.hdr = appendStreamHeader(sw.hdr, len(ep.Records), keysLen, countsLen)
	sw.last = nanos
	sw.epochs++

	if sw.epochs >= sw.blockEpochs || len(sw.keys)+len(sw.counts) >= sw.blockBytes {
		return sw.flushBlock()
	}
	return nil
}

// addPieces writes the epoch just encoded at the tail of the pending
// streams as a run of piece blocks, per sw.cuts. The pending block of
// earlier epochs goes out first, so blocks stay in epoch order.
func (sw *SegmentWriter) addPieces(recs []flow.Record, nanos int64, span int, totalRecords, totalPackets uint64) error {
	first := sw.cuts[0]
	if err := sw.writeBlock(sw.epochs, sw.hdr, sw.keys[:first.keysOff], sw.counts[:first.countsOff]); err != nil {
		return err
	}
	for p, c := range sw.cuts {
		end := segCut{rec: len(recs), keysOff: len(sw.keys), countsOff: len(sw.counts)}
		if p+1 < len(sw.cuts) {
			end = sw.cuts[p+1]
		}
		hdr := sw.hdr[:0] // the pending headers are written: reuse the buffer
		if p == 0 {
			hdr = binary.AppendUvarint(hdr, entryHead)
			hdr = appendEpochHeader(hdr, uint64(nanos-sw.last), span, totalRecords, totalPackets)
			hdr = binary.AppendUvarint(hdr, uint64(len(sw.cuts)))
		} else {
			hdr = binary.AppendUvarint(hdr, entryCont)
		}
		hdr = appendStreamHeader(hdr, end.rec-c.rec, end.keysOff-c.keysOff, end.countsOff-c.countsOff)
		w1, w2 := recs[c.rec].Key.Words()
		hdr = binary.AppendUvarint(hdr, w1)
		hdr = binary.AppendUvarint(hdr, w2)
		sw.hdr = hdr
		if err := sw.writeBlock(1, hdr, sw.keys[c.keysOff:end.keysOff], sw.counts[c.countsOff:end.countsOff]); err != nil {
			return err
		}
	}
	sw.last = nanos
	sw.resetPending()
	return nil
}

// appendEpochHeader appends the epoch-level fields of a whole or head
// entry.
func appendEpochHeader(b []byte, nanosDelta uint64, span int, totalRecords, totalPackets uint64) []byte {
	b = binary.AppendUvarint(b, nanosDelta)
	b = binary.AppendUvarint(b, uint64(span))
	b = binary.AppendUvarint(b, totalRecords)
	return binary.AppendUvarint(b, totalPackets)
}

// appendStreamHeader appends an entry's record count and stream lengths.
func appendStreamHeader(b []byte, count, keysLen, countsLen int) []byte {
	b = binary.AppendUvarint(b, uint64(count))
	b = binary.AppendUvarint(b, uint64(keysLen))
	return binary.AppendUvarint(b, uint64(countsLen))
}

// flushBlock writes the pending epochs as one block.
func (sw *SegmentWriter) flushBlock() error {
	err := sw.writeBlock(sw.epochs, sw.hdr, sw.keys, sw.counts)
	sw.resetPending()
	return err
}

func (sw *SegmentWriter) resetPending() {
	sw.hdr = sw.hdr[:0]
	sw.keys = sw.keys[:0]
	sw.counts = sw.counts[:0]
	sw.epochs = 0
}

// writeBlock compresses keys || counts into the file and records the
// block's entry count, headers and compressed length in the index. An
// entry-less block writes nothing.
func (sw *SegmentWriter) writeBlock(entries int, hdr, keys, counts []byte) error {
	if entries == 0 {
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
	if _, err := sw.flate.Write(keys); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.flate.Write(counts); err != nil {
		return sw.fail(err)
	}
	if err := sw.flate.Close(); err != nil {
		return sw.fail(err)
	}

	if _, err := sw.w.Write(sw.comp.Bytes()); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write block: %w", err))
	}
	sw.index = binary.AppendUvarint(sw.index, uint64(entries))
	sw.index = append(sw.index, hdr...)
	sw.index = binary.AppendUvarint(sw.index, uint64(sw.comp.Len()))
	return nil
}

// start writes the file header once.
func (sw *SegmentWriter) start() error {
	if sw.started {
		return nil
	}
	hdr := append([]byte(segMagic), segVersion, byte(sw.kind))
	if _, err := sw.w.Write(hdr); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write segment header: %w", err))
	}
	sw.started = true
	return nil
}

// Close flushes the final block and writes the trailing index. The
// header and index are written even for an epoch-less segment so the
// file is recognizably a (valid, empty) one.
func (sw *SegmentWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.start(); err != nil {
		return err
	}
	if err := sw.flushBlock(); err != nil {
		return err
	}
	sw.index = binary.LittleEndian.AppendUint32(sw.index, uint32(len(sw.index)))
	if _, err := sw.w.Write(sw.index); err != nil {
		return sw.fail(fmt.Errorf("recordstore: write segment index: %w", err))
	}
	return nil
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
	span         int
	totalRecords uint64
	totalPackets uint64
	pieces       int // index of the epoch's first piece in Segment.pieces
	npieces      int
}

// segPiece is one independently decodable run of an epoch's records: a
// whole epoch in a shared block, or one piece of a split epoch.
type segPiece struct {
	block     int
	count     int
	keysOff   int // offset into the block's raw (inflated) bytes
	keysLen   int
	countsOff int
	countsLen int
	// w1, w2 are the piece's first packed key. keyed is false when the
	// header names none (whole epochs, version 1 segments), which turns
	// pruning off for the piece.
	w1, w2 uint64
	keyed  bool
}

// segBlock is one compression block of an open segment.
type segBlock struct {
	compOff int // offset of the DEFLATE stream in the segment data
	compLen int
	rawLen  int // total inflated length (keys + counts)
}

// Segment is a cold or rollup segment opened for reading. The per-epoch
// index is built once on open without inflating anything; a read
// inflates only the blocks it needs (cached, so sequential scans inflate
// each block once). Safe for concurrent use.
type Segment struct {
	data   []byte
	unmap  func() error
	kind   SegmentKind
	metas  []segEpochMeta
	pieces []segPiece
	blks   []segBlock

	// inflates counts block inflations (cache misses).
	inflates atomic.Uint64

	// Single-block inflate cache; guarded by mu. Queries re-open segments
	// per request, so one slot captures both sequential scans and
	// repeated point reads without a real cache policy. The buffer comes
	// from rawBufs and goes back on Close.
	mu       sync.Mutex
	cachedIx int
	cached   *rawBuf
}

// rawBuf is a pooled inflate buffer: segments opened per request reuse
// the memory of earlier ones instead of allocating their own.
type rawBuf struct{ b []byte }

var rawBufs = sync.Pool{New: func() any { return new(rawBuf) }}

// inflater is a reusable DEFLATE reader. flate.NewReader allocates its
// window and tables on every call; a pooled one is Reset instead.
type inflater struct {
	src  bytes.Reader
	fr   io.ReadCloser
	tail [1]byte
}

var inflaters = sync.Pool{New: func() any {
	in := new(inflater)
	in.fr = flate.NewReader(&in.src)
	return in
}}

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
	v := data[len(segMagic)]
	if v != 1 && v != segVersion {
		return nil, fmt.Errorf("unsupported segment version %d", v)
	}
	kind := SegmentKind(data[len(segMagic)+1])
	if kind != SegmentCold && kind != SegmentRollup {
		return nil, fmt.Errorf("unknown segment kind %d", kind)
	}
	s := &Segment{data: data, unmap: unmap, kind: kind, cachedIx: -1}
	if err := s.buildIndex(hdrLen, v); err != nil {
		return nil, err
	}
	return s, nil
}

// buildIndex reads the block headers — from the trailing index (version
// 2) or from each block frame (version 1) — without inflating anything.
// Segments are immutable once renamed into place, so unlike the hot
// store's live tail any structural damage here is fatal for the whole
// segment.
func (s *Segment) buildIndex(off int, version byte) error {
	var ix indexWalk
	if version == 1 {
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
			first := len(s.pieces)
			hn, err := s.addEntries(&ix, frame, version)
			if err != nil {
				return fmt.Errorf("block at byte %d: %w", off, err)
			}
			if err := s.addBlock(first, body+hn, int(frameLen)-hn); err != nil {
				return fmt.Errorf("block at byte %d: %w", off, err)
			}
			off = body + int(frameLen)
		}
	} else {
		if len(s.data)-off < 4 {
			return errors.New("segment index missing")
		}
		ixLen := int(binary.LittleEndian.Uint32(s.data[len(s.data)-4:]))
		end := len(s.data) - 4 - ixLen
		if ixLen > len(s.data)-4-off {
			return fmt.Errorf("segment index of %d bytes does not fit", ixLen)
		}
		index := s.data[end : len(s.data)-4]
		for pos := 0; pos < len(index); {
			first := len(s.pieces)
			hn, err := s.addEntries(&ix, index[pos:], version)
			if err != nil {
				return fmt.Errorf("index block %d: %w", len(s.blks), err)
			}
			pos += hn
			compLen, n := binary.Uvarint(index[pos:])
			if n <= 0 || compLen > uint64(end-off) {
				return fmt.Errorf("index block %d: corrupt stream length", len(s.blks))
			}
			pos += n
			if err := s.addBlock(first, off, int(compLen)); err != nil {
				return fmt.Errorf("index block %d: %w", len(s.blks), err)
			}
			off += int(compLen)
		}
		if off != end {
			return fmt.Errorf("blocks end at byte %d, index starts at %d", off, end)
		}
	}
	if ix.owed != 0 {
		return fmt.Errorf("last split epoch lacks %d pieces", ix.owed)
	}
	return nil
}

// indexWalk is the state buildIndex carries across blocks.
type indexWalk struct {
	lastNanos int64
	owed      int // continuation pieces the current split epoch still owes
}

// addEntries parses one block's entry count and entry headers from b,
// appending the pieces and epochs they describe, and returns how many
// bytes it consumed.
func (s *Segment) addEntries(ix *indexWalk, b []byte, version byte) (int, error) {
	entries, pos := binary.Uvarint(b)
	if pos <= 0 || entries == 0 || entries > 1<<20 {
		return 0, errors.New("corrupt entry count")
	}
	next := func() (uint64, bool) {
		x, n := binary.Uvarint(b[pos:])
		pos += max(n, 0)
		return x, n > 0
	}
	for e := uint64(0); e < entries; e++ {
		var h entryHeader
		if !h.read(next, version) {
			return 0, fmt.Errorf("corrupt header %d", e)
		}
		if err := h.check(); err != nil {
			return 0, fmt.Errorf("header %d: %w", e, err)
		}
		p := segPiece{
			block:     len(s.blks),
			count:     int(h.count),
			keysLen:   int(h.keysLen),
			countsLen: int(h.countsLen),
			w1:        h.w1,
			w2:        h.w2,
			keyed:     h.flag != entryWhole,
		}
		if h.flag == entryCont {
			if ix.owed == 0 {
				return 0, fmt.Errorf("header %d: continuation piece without a head", e)
			}
			ix.owed--
			prev := s.pieces[len(s.pieces)-1]
			if p.w1 < prev.w1 || (p.w1 == prev.w1 && p.w2 < prev.w2) {
				return 0, fmt.Errorf("header %d: piece first keys out of order", e)
			}
			m := &s.metas[len(s.metas)-1]
			m.count += p.count
			m.npieces++
			if m.count > 1<<28 {
				return 0, fmt.Errorf("header %d: implausible epoch record count", e)
			}
		} else {
			if ix.owed != 0 {
				return 0, fmt.Errorf("header %d: split epoch before it lacks %d pieces", e, ix.owed)
			}
			ix.owed = int(h.pieces) - 1
			ix.lastNanos += int64(h.nanosDelta)
			s.metas = append(s.metas, segEpochMeta{
				nanos:        ix.lastNanos,
				count:        p.count,
				span:         int(h.span),
				totalRecords: h.totalRecords,
				totalPackets: h.totalPackets,
				pieces:       len(s.pieces),
				npieces:      1,
			})
		}
		s.pieces = append(s.pieces, p)
	}
	return pos, nil
}

// addBlock lays out the raw offsets of the pieces added since first —
// columnar: all key streams, then all count streams — and records their
// block's compressed stream.
func (s *Segment) addBlock(first, compOff, compLen int) error {
	if compLen < 0 {
		return errors.New("headers overrun the frame")
	}
	blk := s.pieces[first:]
	var rawLen int
	for i := range blk {
		blk[i].keysOff = rawLen
		rawLen += blk[i].keysLen
	}
	for i := range blk {
		blk[i].countsOff = rawLen
		rawLen += blk[i].countsLen
	}
	// DEFLATE expands each compressed byte to at most ~1032 raw bytes
	// (a 258-byte match costs no less than two bits), so headers
	// declaring more raw data than the stream could possibly inflate
	// are corruption. Rejecting here keeps blockRaw from allocating a
	// multi-gigabyte buffer on the say-so of a tiny hostile file.
	const maxInflateRatio = 1032
	if rawLen > compLen*maxInflateRatio+64 {
		return fmt.Errorf("declares %d raw bytes from a %d-byte stream", rawLen, compLen)
	}
	s.blks = append(s.blks, segBlock{compOff: compOff, compLen: compLen, rawLen: rawLen})
	return nil
}

// entryHeader is one parsed block entry header, either version.
type entryHeader struct {
	flag                       uint64
	nanosDelta, span           uint64
	totalRecords, totalPackets uint64
	pieces                     uint64 // head pieces: how many the epoch has
	count, keysLen, countsLen  uint64
	w1, w2                     uint64
}

// read parses the header fields through next, reporting false on a
// malformed varint.
func (h *entryHeader) read(next func() (uint64, bool), version byte) bool {
	ok := true
	fields := func(dsts ...*uint64) {
		for _, d := range dsts {
			if ok {
				*d, ok = next()
			}
		}
	}
	if version == 1 {
		h.pieces = 1
		fields(&h.nanosDelta, &h.count, &h.keysLen, &h.countsLen, &h.span, &h.totalRecords, &h.totalPackets)
		return ok
	}
	fields(&h.flag)
	switch h.flag {
	case entryWhole:
		h.pieces = 1
		fields(&h.nanosDelta, &h.span, &h.totalRecords, &h.totalPackets)
	case entryHead:
		fields(&h.nanosDelta, &h.span, &h.totalRecords, &h.totalPackets, &h.pieces)
	}
	fields(&h.count, &h.keysLen, &h.countsLen)
	if h.flag != entryWhole {
		fields(&h.w1, &h.w2)
	}
	return ok
}

// check rejects header values no segment writer produces. The record
// count is bounded by the stream bytes — every record costs at least two
// key bytes and one count byte — so a tiny file cannot declare a huge
// epoch and make a reader reserve memory for it.
func (h *entryHeader) check() error {
	switch {
	case h.flag > entryCont:
		return fmt.Errorf("unknown entry flag %d", h.flag)
	case h.count > 1<<28 || h.keysLen > 1<<31 || h.countsLen > 1<<31 || h.span > 1<<28:
		return errors.New("implausible header")
	case h.count > h.keysLen/2 || h.count > h.countsLen:
		return fmt.Errorf("record count %d does not fit %d key and %d count bytes", h.count, h.keysLen, h.countsLen)
	case h.flag != entryWhole && (h.count == 0 || h.w2>>40 != 0):
		return errors.New("corrupt piece header")
	case h.flag == entryHead && (h.pieces == 0 || h.pieces > 1<<20):
		return fmt.Errorf("implausible piece count %d", h.pieces)
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
	return s.AppendEpochMatching(i, Filter{}, dst)
}

// AppendEpochMatching decodes the records of epoch i that match f,
// appended to dst in key order. Pieces whose key range cannot hold a
// match of f's source address are not inflated at all; the rest are
// filtered on the packed key words before any record is built.
func (s *Segment) AppendEpochMatching(i int, f Filter, dst []flow.Record) (Epoch, error) {
	if i < 0 || i >= len(s.metas) {
		return Epoch{}, fmt.Errorf("recordstore: segment epoch %d out of range [0,%d)", i, len(s.metas))
	}
	meta := s.metas[i]
	all := f == Filter{}
	if all {
		dst = slices.Grow(dst, meta.count)
	}
	ep := Epoch{Time: time.Unix(0, meta.nanos).UTC(), Records: dst}
	lo, hi := f.keyRange()

	s.mu.Lock()
	defer s.mu.Unlock()
	pieces := s.pieces[meta.pieces : meta.pieces+meta.npieces]
	for j, p := range pieces {
		// Records are key-sorted and pieces cut in key order, so piece j
		// holds keys in [first_j, first_j+1] — inclusive at the top,
		// because equal keys may straddle a cut.
		if p.keyed && p.w1 > hi {
			break
		}
		if p.keyed && j+1 < len(pieces) && pieces[j+1].w1 < lo {
			continue
		}
		raw, err := s.blockRaw(p.block)
		if err != nil {
			return Epoch{}, err
		}
		if p.keysOff+p.keysLen > len(raw) || p.countsOff+p.countsLen > len(raw) {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: streams overrun block", i)
		}
		keys := raw[p.keysOff : p.keysOff+p.keysLen]
		counts := raw[p.countsOff : p.countsOff+p.countsLen]
		if p.keyed {
			// A piece restarts the delta coding, so its first two key
			// varints are its first key verbatim.
			w1, n1 := binary.Uvarint(keys)
			w2, n2 := binary.Uvarint(keys[max(n1, 0):])
			if n1 <= 0 || n2 <= 0 || w1 != p.w1 || w2 != p.w2 {
				return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: piece %d first key differs from its header", i, j)
			}
		}
		ep.Records, err = decodeColumnar(keys, counts, p.count, f, all, ep.Records)
		if err != nil {
			return Epoch{}, fmt.Errorf("recordstore: segment epoch %d: %w", i, err)
		}
	}
	return ep, nil
}

// decodeColumnar decodes n records from separate key and count streams,
// appending those matching f (every one when all is set) to dst. Every
// record is validated whether or not it matches.
func decodeColumnar(keys, counts []byte, n int, f Filter, all bool, dst []flow.Record) ([]flow.Record, error) {
	var prev1, prev2 uint64
	for r := 0; r < n; r++ {
		d1, n1 := binary.Uvarint(keys)
		if n1 <= 0 {
			return nil, fmt.Errorf("corrupt key stream at record %d", r)
		}
		keys = keys[n1:]
		x2, n2 := binary.Uvarint(keys)
		if n2 <= 0 {
			return nil, fmt.Errorf("corrupt key stream at record %d", r)
		}
		keys = keys[n2:]
		cnt, n3 := binary.Uvarint(counts)
		if n3 <= 0 || cnt > math.MaxUint32 {
			return nil, fmt.Errorf("corrupt count stream at record %d", r)
		}
		counts = counts[n3:]

		w1 := prev1 + d1
		w2 := prev2 ^ x2
		if w2>>40 != 0 {
			return nil, fmt.Errorf("record %d: invalid packed key word %#x", r, w2)
		}
		if all || f.matchWords(w1, w2, uint32(cnt)) {
			dst = append(dst, flow.Record{Key: keyOfWords(w1, w2), Count: uint32(cnt)})
		}
		prev1, prev2 = w1, w2
	}
	if len(keys) != 0 || len(counts) != 0 {
		return nil, fmt.Errorf("%d trailing stream bytes", len(keys)+len(counts))
	}
	return dst, nil
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

// Inflates returns how many blocks the segment has inflated; reads
// served from the one-block cache do not count.
func (s *Segment) Inflates() uint64 { return s.inflates.Load() }

// blockRaw returns block b inflated, serving repeats from the one-slot
// cache. Caller holds s.mu.
func (s *Segment) blockRaw(b int) ([]byte, error) {
	if s.cachedIx == b {
		return s.cached.b, nil
	}
	blk := s.blks[b]
	if s.cached == nil {
		s.cached = rawBufs.Get().(*rawBuf)
	}
	if cap(s.cached.b) < blk.rawLen {
		s.cached.b = make([]byte, blk.rawLen)
	}
	buf := s.cached.b[:blk.rawLen]
	s.cachedIx = -1
	s.inflates.Add(1)

	in := inflaters.Get().(*inflater)
	defer inflaters.Put(in)
	in.src.Reset(s.data[blk.compOff : blk.compOff+blk.compLen])
	if err := in.fr.(flate.Resetter).Reset(&in.src, nil); err != nil {
		return nil, fmt.Errorf("recordstore: inflate block %d: %w", b, err)
	}
	if _, err := io.ReadFull(in.fr, buf); err != nil {
		return nil, fmt.Errorf("recordstore: inflate block %d: %w", b, err)
	}
	// A stream with trailing garbage decodes the declared length fine; a
	// short one already failed above. Confirm it ends where the headers
	// said it would.
	if n, _ := in.fr.Read(in.tail[:]); n != 0 {
		return nil, fmt.Errorf("recordstore: inflate block %d: stream longer than declared", b)
	}
	s.cached.b = buf
	s.cachedIx = b
	return buf, nil
}

// Size returns the segment's byte length.
func (s *Segment) Size() int { return len(s.data) }

// Close releases the mapping and returns the inflate buffer to the pool.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data = nil
	s.metas = nil
	s.pieces = nil
	s.blks = nil
	if s.cached != nil {
		rawBufs.Put(s.cached)
		s.cached = nil
	}
	s.cachedIx = -1
	if s.unmap != nil {
		u := s.unmap
		s.unmap = nil
		return u()
	}
	return nil
}

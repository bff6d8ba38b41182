package recordstore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/flow"
)

// randomSortedEpoch draws n key-sorted records whose sources come from a
// pool of srcs addresses, with runs of duplicate keys.
func randomSortedEpoch(rng *rand.Rand, n, srcs int) []flow.Record {
	recs := make([]flow.Record, n)
	for i := range recs {
		recs[i] = flow.Record{
			Key: flow.Key{
				SrcIP:   uint32(0x0A000000 + rng.IntN(srcs)*257),
				DstIP:   rng.Uint32(),
				SrcPort: uint16(rng.IntN(4)),
				DstPort: 443,
				Proto:   uint8(6 + 11*rng.IntN(2)),
			},
			Count: uint32(1 + rng.IntN(50)),
		}
		if i > 0 && rng.IntN(8) == 0 {
			recs[i].Key = recs[i-1].Key
		}
	}
	flow.SortByKey(recs)
	return recs
}

// straddleEpoch holds a run of identical keys long enough that a piece
// cut falls inside it, between distinct keys below and above. It
// returns the repeated key too.
func straddleEpoch() ([]flow.Record, flow.Key) {
	k := flow.Key{SrcIP: 0x0A800000, DstIP: 0xC0A80001, SrcPort: 5, DstPort: 53, Proto: 17}
	var recs []flow.Record
	for i := 0; i < 2000; i++ {
		recs = append(recs, flow.Record{Key: flow.Key{SrcIP: uint32(0x0A000000 + i*97), DstIP: uint32(i), Proto: 6}, Count: uint32(1 + i%9)})
	}
	for i := 0; i < 20000; i++ {
		recs = append(recs, flow.Record{Key: k, Count: uint32(1 + i%300)})
	}
	for i := 0; i < 2000; i++ {
		recs = append(recs, flow.Record{Key: flow.Key{SrcIP: uint32(0x0B000000 + i*97), DstIP: uint32(i), Proto: 6}, Count: uint32(2 + i%9)})
	}
	return recs, k
}

// filtersFor returns the filter shapes the equivalence property is
// checked under, drawn from the epoch's own records: the zero filter,
// src present / absent / lowest / highest, src+dst, dst-only, port,
// proto and minpkts terms.
func filtersFor(recs []flow.Record) []Filter {
	fs := []Filter{{}, {SrcIP: 0x01020304}, {MinPackets: 25}, {Proto: 17}, {DstPort: 443, SrcPort: 2}}
	if len(recs) == 0 {
		return fs
	}
	lo, hi, mid := recs[0].Key, recs[len(recs)-1].Key, recs[len(recs)/2].Key
	return append(fs,
		Filter{SrcIP: lo.SrcIP},
		Filter{SrcIP: hi.SrcIP},
		Filter{SrcIP: mid.SrcIP},
		Filter{SrcIP: mid.SrcIP + 1},
		Filter{SrcIP: hi.SrcIP + 1},
		Filter{SrcIP: mid.SrcIP, DstIP: mid.DstIP},
		Filter{SrcIP: mid.SrcIP, DstIP: mid.DstIP + 1},
		Filter{DstIP: mid.DstIP},
		Filter{SrcIP: mid.SrcIP, MinPackets: 10},
	)
}

// checkMatching asserts AppendEpochMatching(i, f, dst) equals
// f.Apply(AppendEpochAt(i, nil)) for every epoch of src under every
// filter, appended after whatever dst already holds.
func checkMatching(t *testing.T, name string, src EpochSource, extra ...Filter) {
	t.Helper()
	sentinel := flow.Record{Key: flow.Key{SrcIP: 0xFFFFFFFF}, Count: 7}
	var buf []flow.Record
	for i := 0; i < src.Epochs(); i++ {
		full, err := src.AppendEpochAt(i, nil)
		if err != nil {
			t.Fatalf("%s epoch %d: %v", name, i, err)
		}
		if len(full.Records) != src.EpochLen(i) {
			t.Fatalf("%s epoch %d: decoded %d records, EpochLen %d", name, i, len(full.Records), src.EpochLen(i))
		}
		for _, f := range append(filtersFor(full.Records), extra...) {
			want := append([]flow.Record{sentinel}, f.Apply(full.Records)...)
			got, err := src.AppendEpochMatching(i, f, append(buf[:0], sentinel))
			if err != nil {
				t.Fatalf("%s epoch %d filter %q: %v", name, i, f, err)
			}
			buf = got.Records
			if !got.Time.Equal(full.Time) {
				t.Fatalf("%s epoch %d filter %q: time %v, want %v", name, i, f, got.Time, full.Time)
			}
			if !slices.Equal(got.Records, want) {
				t.Fatalf("%s epoch %d filter %q: %d records, want %d", name, i, f, len(got.Records)-1, len(want)-1)
			}
		}
	}
}

// TestAppendEpochMatchingEquivalence is the pushdown's correctness
// property: on every tier — hot, version 1 cold, version 2 cold with
// split epochs, rollup, and a tiered store holding both — filtering
// during decode yields exactly the records filtering after decode does.
func TestAppendEpochMatchingEquivalence(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 4242))
	straddle, k := straddleEpoch()
	epochs := [][]flow.Record{
		sortedEpoch(0, 30),
		randomSortedEpoch(rng, 12000, 300),
		nil,
		straddle,
		sortedEpoch(4, 20000),
		randomSortedEpoch(rng, 500, 20),
		randomSortedEpoch(rng, 20000, 3),
	}
	times := make([]time.Time, len(epochs))
	for e := range epochs {
		times[e] = time.Unix(int64(7000+e*60), 0).UTC()
	}
	extra := []Filter{{SrcIP: k.SrcIP}, {SrcIP: k.SrcIP, DstIP: k.DstIP}, {SrcIP: k.SrcIP, MinPackets: 299}}

	var hot bytes.Buffer
	w := NewWriter(&hot)
	for e := range epochs {
		if err := w.WriteEpoch(times[e], epochs[e]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	m, err := NewMappedBytes(hot.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	checkMatching(t, "hot", m, extra...)

	v1, err := OpenSegment(filepath.Join("testdata", "v1-cold.cseg"))
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Close()
	checkMatching(t, "v1 cold", v1)

	seg, err := OpenSegmentBytes(buildSegment(t, SegmentCold, 2, times, epochs))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for _, e := range []int{1, 3, 4, 6} {
		if seg.metas[e].npieces < 2 {
			t.Fatalf("epoch %d stored as %d piece(s), want a split epoch", e, seg.metas[e].npieces)
		}
	}
	if p := seg.pieces[seg.metas[3].pieces+1]; p.w1 != uint64(k.SrcIP)<<32|uint64(k.DstIP) {
		t.Fatalf("no piece cut inside the run of equal keys (second piece starts at %#x)", p.w1)
	}
	checkMatching(t, "v2 cold", seg, extra...)

	var rimg bytes.Buffer
	rw := NewSegmentWriter(&rimg, SegmentRollup)
	for e := range epochs {
		if err := rw.Add(SegmentEpoch{Time: times[e], Records: epochs[e], Span: 4, TotalRecords: 99999, TotalPackets: 1 << 40}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	rollup, err := OpenSegmentBytes(rimg.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer rollup.Close()
	if info := rollup.EpochInfo(4); info.Span != 4 || info.TotalPackets != 1<<40 || info.Records != len(epochs[4]) {
		t.Fatalf("split rollup epoch info = %+v", info)
	}
	checkMatching(t, "rollup", rollup, extra...)

	dir := filepath.Join(t.TempDir(), "tiered")
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for e := range epochs {
		if err := tw.WriteEpoch(times[e], epochs[e]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.Segments() == 0 || ts.Epochs() != len(epochs) {
		t.Fatalf("tiered store: %d segments, %d epochs", ts.Segments(), ts.Epochs())
	}
	checkMatching(t, "tiered", ts, extra...)
}

// TestColdInflateCounts pins what the pushdown saves: a src= read of a
// source held by one record inflates exactly one piece, and an
// unfiltered read inflates every piece of its epoch and nothing of its
// neighbours'.
func TestColdInflateCounts(t *testing.T) {
	epochs := [][]flow.Record{sortedEpoch(0, 50), sortedEpoch(1, 30000), sortedEpoch(2, 30000), sortedEpoch(3, 50)}
	dir := filepath.Join(t.TempDir(), "tiered")
	tw, _, err := OpenTiered(dir, TieredOptions{HotEpochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for e := range epochs {
		if err := tw.WriteEpoch(time.Unix(int64(8000+e), 0), epochs[e]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() *TieredSource {
		t.Helper()
		src, err := OpenTieredSource(dir)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	src := open()
	defer src.Close()
	seg := src.segs[src.entries[1].seg]
	pieces := seg.metas[src.entries[1].local].npieces
	if pieces < 3 {
		t.Fatalf("epoch 1 stored as %d pieces, want at least 3", pieces)
	}
	unique := epochs[1][len(epochs[1])/2]
	ep, err := src.AppendEpochMatching(1, Filter{SrcIP: unique.Key.SrcIP}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Records) != 1 || ep.Records[0] != unique {
		t.Fatalf("src read returned %v, want [%v]", ep.Records, unique)
	}
	if got := src.Inflates(); got != 1 {
		t.Fatalf("src read of one record inflated %d pieces, want 1", got)
	}
	if got := seg.Inflates(); got != 1 {
		t.Fatalf("segment counted %d inflates, want 1", got)
	}
	if src.HotDecodes() != 0 {
		t.Fatal("cold read touched the hot tier")
	}

	for _, e := range []int{1, 2} {
		src := open()
		if _, err := src.AppendEpochAt(e, nil); err != nil {
			t.Fatal(err)
		}
		want := uint64(src.segs[src.entries[e].seg].metas[src.entries[e].local].npieces)
		if got := src.Inflates(); got != want {
			t.Fatalf("unfiltered read of epoch %d inflated %d blocks, want its %d pieces", e, got, want)
		}
		src.Close()
	}
}

// TestColdV1Fixture: a segment written by the version 1 writer (the
// committed fixture) still decodes to exactly the records it was
// written from.
func TestColdV1Fixture(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "v1-cold.cseg"))
	if err != nil {
		t.Fatal(err)
	}
	if img[len(segMagic)] != 1 {
		t.Fatalf("fixture is version %d, want 1", img[len(segMagic)])
	}
	seg, err := OpenSegmentBytes(img)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if seg.Epochs() != 5 {
		t.Fatalf("fixture holds %d epochs, want 5", seg.Epochs())
	}
	for e := 0; e < 5; e++ {
		want := epochRecords(e, 40+e*30)
		ep, err := seg.AppendEpochAt(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wt := time.Unix(int64(6000+e*60), int64(e)).UTC(); !ep.Time.Equal(wt) {
			t.Fatalf("epoch %d time %v, want %v", e, ep.Time, wt)
		}
		if !slices.Equal(ep.Records, want) {
			t.Fatalf("epoch %d decodes differently from the records it was written from", e)
		}
		if info := seg.EpochInfo(e); info.Records != len(want) || info.Span != 1 || info.Tier != "cold" {
			t.Fatalf("epoch %d info %+v", e, info)
		}
	}
}

// testBlock is one hand-built block: its header varints (entry count
// first) and the raw streams it compresses.
type testBlock struct {
	hdr          []uint64
	keys, counts []byte
}

// rawSegment lays hand-built blocks out in a segment image: framed
// (version 1) or followed by the trailing index (version 2).
func rawSegment(t testing.TB, version byte, blocks ...testBlock) []byte {
	t.Helper()
	img := append([]byte(segMagic), version, byte(SegmentCold))
	var index []byte
	for _, b := range blocks {
		var hdr []byte
		for _, v := range b.hdr {
			hdr = binary.AppendUvarint(hdr, v)
		}
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(b.keys)
		fw.Write(b.counts)
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if version == 1 {
			img = binary.AppendUvarint(img, uint64(len(hdr)+comp.Len()))
			img = append(img, hdr...)
			img = append(img, comp.Bytes()...)
			continue
		}
		img = append(img, comp.Bytes()...)
		index = append(index, hdr...)
		index = binary.AppendUvarint(index, uint64(comp.Len()))
	}
	if version == 1 {
		return img
	}
	img = append(img, index...)
	return binary.LittleEndian.AppendUint32(img, uint32(len(index)))
}

// pieceStreams delta-codes recs from a zero base, as one piece.
func pieceStreams(recs []flow.Record) (keys, counts []byte) {
	var prev1, prev2 uint64
	for _, r := range recs {
		w1, w2 := r.Key.Words()
		keys = binary.AppendUvarint(keys, w1-prev1)
		keys = binary.AppendUvarint(keys, w2^prev2)
		counts = binary.AppendUvarint(counts, uint64(r.Count))
		prev1, prev2 = w1, w2
	}
	return keys, counts
}

// pieceBlock builds a one-entry piece block of recs. A head piece
// carries the epoch fields; firstW1Delta skews the header's first key.
func pieceBlock(flag uint64, recs []flow.Record, firstW1Delta uint64) testBlock {
	keys, counts := pieceStreams(recs)
	w1, w2 := recs[0].Key.Words()
	hdr := []uint64{1, flag}
	if flag == entryHead {
		hdr = append(hdr, 1, 1, uint64(len(recs)), 1, 2) // a two-piece epoch
	}
	hdr = append(hdr, uint64(len(recs)), uint64(len(keys)), uint64(len(counts)), w1+firstW1Delta, w2)
	return testBlock{hdr: hdr, keys: keys, counts: counts}
}

// TestColdRejectsBadPieces: the index refuses a continuation piece with
// no head before it, piece first keys out of order, and a split epoch
// with fewer or more pieces than its head names; a header first
// key that differs from the one in the stream fails the read (the
// stream is compressed, so it is checked when the piece is inflated).
func TestColdRejectsBadPieces(t *testing.T) {
	recs := sortedEpoch(0, 40)
	lower, upper := recs[:20], recs[20:]

	good := rawSegment(t, segVersion, pieceBlock(entryHead, lower, 0), pieceBlock(entryCont, upper, 0))
	seg, err := OpenSegmentBytes(good)
	if err != nil {
		t.Fatalf("well-formed pieces rejected: %v", err)
	}
	if ep, err := seg.AppendEpochAt(0, nil); err != nil || !slices.Equal(ep.Records, recs) {
		t.Fatalf("well-formed pieces decode to %d records, err %v", len(ep.Records), err)
	}

	wholeKeys, wholeCounts := pieceStreams(lower)
	whole := testBlock{
		hdr:  []uint64{1, entryWhole, 1, 1, uint64(len(lower)), 1, uint64(len(lower)), uint64(len(wholeKeys)), uint64(len(wholeCounts))},
		keys: wholeKeys, counts: wholeCounts,
	}
	for name, img := range map[string][]byte{
		"continuation first":          rawSegment(t, segVersion, pieceBlock(entryCont, upper, 0)),
		"continuation after a whole":  rawSegment(t, segVersion, whole, pieceBlock(entryCont, upper, 0)),
		"first keys out of order":     rawSegment(t, segVersion, pieceBlock(entryHead, upper, 0), pieceBlock(entryCont, lower, 0)),
		"head missing its piece":      rawSegment(t, segVersion, pieceBlock(entryHead, lower, 0)),
		"piece beyond the count":      rawSegment(t, segVersion, pieceBlock(entryHead, lower, 0), pieceBlock(entryCont, upper, 0), pieceBlock(entryCont, upper, 0)),
		"whole before the last piece": rawSegment(t, segVersion, pieceBlock(entryHead, lower, 0), whole),
	} {
		if _, err := OpenSegmentBytes(img); err == nil {
			t.Errorf("%s: segment opened without error", name)
		}
	}

	skewed := rawSegment(t, segVersion, pieceBlock(entryHead, lower, 1), pieceBlock(entryCont, upper, 0))
	seg, err = OpenSegmentBytes(skewed)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seg.AppendEpochAt(0, nil); err == nil {
		t.Error("head piece whose header first key differs from its stream decoded without error")
	}
	if _, err := seg.AppendEpochMatching(0, Filter{SrcIP: lower[0].Key.SrcIP}, nil); err == nil {
		t.Error("filtered read of the skewed piece decoded without error")
	}
}

// hugeCountHotImage is a 12-byte hot store whose one epoch declares 1<<28
// records and holds none.
func hugeCountHotImage() []byte {
	frame := binary.AppendUvarint(nil, 1)
	frame = binary.AppendUvarint(frame, 1<<28)
	img := append([]byte(magic), version)
	img = binary.AppendUvarint(img, uint64(len(frame)))
	return append(img, frame...)
}

// hugeCountSegmentImage is a tiny segment of the given version whose one
// epoch declares 1<<28 records over 3 raw stream bytes.
func hugeCountSegmentImage(t testing.TB, version byte) []byte {
	hdr := []uint64{1, 1, 1 << 28, 2, 1, 1, 1, 1} // version 1 field order
	if version != 1 {
		hdr = []uint64{1, entryWhole, 1, 1, 1, 1, 1 << 28, 2, 1}
	}
	return rawSegment(t, version, testBlock{hdr: hdr, keys: []byte{1, 0}, counts: []byte{5}})
}

// TestImplausibleRecordCountRejected: a store whose header declares more
// records than its bytes could encode is rejected when it is opened,
// before any reader sizes a buffer from the count (which used to reserve
// gigabytes for a file of a few bytes).
func TestImplausibleRecordCountRejected(t *testing.T) {
	hot := hugeCountHotImage()
	if len(hot) != 12 {
		t.Fatalf("hot image is %d bytes, want 12", len(hot))
	}
	if m, err := NewMappedBytes(hot); err == nil {
		t.Errorf("hot image declaring %d records in 0 bytes opened", m.EpochLen(0))
	}
	if _, err := NewReader(bytes.NewReader(hot)).ReadEpoch(); err == nil {
		t.Error("streamed reader decoded the hot image without error")
	}
	for _, v := range []byte{1, segVersion} {
		img := hugeCountSegmentImage(t, v)
		if seg, err := OpenSegmentBytes(img); err == nil {
			t.Errorf("version %d segment (%d bytes) declaring %d records opened", v, len(img), seg.EpochLen(0))
		}
	}
}

package recordstore

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/flow"
)

// sortedEpoch builds n records for epoch e, sorted by packed key — the
// form hot stores persist and SegmentWriter.Add requires.
func sortedEpoch(e, n int) []flow.Record {
	return epochRecords(e, n)
}

// stableEpoch builds the realistic cold-tier workload: a keyset that is
// identical across epochs with counts drifting per epoch. Sorted
// neighbouring epochs are then nearly byte-identical, which is the
// redundancy the columnar block compression exists to exploit.
func stableEpoch(e, n int) []flow.Record {
	recs := make([]flow.Record, 0, n)
	for i := 0; i < n; i++ {
		recs = append(recs, flow.Record{
			Key: flow.Key{
				SrcIP:   uint32(0x0A000000 + i*11),
				DstIP:   uint32(0xC0A80000 + i*3),
				SrcPort: uint16(1024 + i%5000), DstPort: 443, Proto: 6,
			},
			Count: uint32(1000 + (e*31+i*7)%97),
		})
	}
	return recs
}

// buildSegment encodes the given epochs into a cold segment image.
func buildSegment(t *testing.T, kind SegmentKind, blockEpochs int, times []time.Time, epochs [][]flow.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, kind)
	if blockEpochs > 0 {
		sw.SetBlockEpochs(blockEpochs)
	}
	for i := range epochs {
		if err := sw.Add(SegmentEpoch{Time: times[i], Records: epochs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestColdEquivalence: a cold segment must yield, epoch for epoch and
// record for record, exactly what the hot decoder yields for the same
// epochs — including across block boundaries.
func TestColdEquivalence(t *testing.T) {
	const n = 10
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	var hot bytes.Buffer
	w := NewWriter(&hot)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(1700000000+300*e), int64(e)).UTC()
		epochs[e] = sortedEpoch(e, 50+e*13)
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

	// Feed the segment from the hot decode, exactly as compaction does.
	hotEpochs := make([][]flow.Record, n)
	for e := 0; e < n; e++ {
		ep, err := m.EpochAt(e)
		if err != nil {
			t.Fatal(err)
		}
		hotEpochs[e] = ep.Records
	}
	seg, err := OpenSegmentBytes(buildSegment(t, SegmentCold, 4, times, hotEpochs))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	if seg.Kind() != SegmentCold || seg.Epochs() != n {
		t.Fatalf("kind=%v epochs=%d", seg.Kind(), seg.Epochs())
	}
	var buf []flow.Record
	for e := 0; e < n; e++ {
		if !seg.EpochTime(e).Equal(m.EpochTime(e)) {
			t.Fatalf("epoch %d time %v != %v", e, seg.EpochTime(e), m.EpochTime(e))
		}
		if seg.EpochLen(e) != m.EpochLen(e) {
			t.Fatalf("epoch %d len %d != %d", e, seg.EpochLen(e), m.EpochLen(e))
		}
		got, err := seg.AppendEpochAt(e, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		buf = got.Records
		if !slices.Equal(got.Records, hotEpochs[e]) {
			t.Fatalf("epoch %d records diverge from hot decode", e)
		}
		info := seg.EpochInfo(e)
		if info.Tier != "cold" || info.Span != 1 || info.Records != len(hotEpochs[e]) {
			t.Fatalf("epoch %d info = %+v", e, info)
		}
	}

	// Out-of-order access exercises the block cache both ways.
	for _, e := range []int{9, 0, 5, 9, 1} {
		got, err := seg.AppendEpochAt(e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Records, hotEpochs[e]) {
			t.Fatalf("random access epoch %d diverges", e)
		}
	}
}

// TestColdCompressionRatio pins the acceptance floor: on a stable keyset
// with drifting counts (sorted epochs, the cold tier's actual input) the
// segment must be at least 3x smaller than the hot encoding of the same
// epochs.
func TestColdCompressionRatio(t *testing.T) {
	const n, recs = 64, 2000
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	var hot bytes.Buffer
	w := NewWriter(&hot)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(1700000000+300*e), 0).UTC()
		epochs[e] = stableEpoch(e, recs)
		if err := w.WriteEpoch(times[e], epochs[e]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := buildSegment(t, SegmentCold, 0, times, epochs)
	raw := hot.Len()
	if ratio := float64(raw) / float64(len(seg)); ratio < 3.0 {
		t.Fatalf("compression ratio %.2fx (%d -> %d bytes), want >= 3x", ratio, raw, len(seg))
	}
}

// splitSegmentImage encodes a small epoch, one cut into several pieces,
// and another small one — the version 2 layout's shared and piece blocks
// side by side.
func splitSegmentImage(t testing.TB) ([]time.Time, [][]flow.Record, []byte) {
	t.Helper()
	times := []time.Time{time.Unix(2100, 0).UTC(), time.Unix(2101, 0).UTC(), time.Unix(2102, 0).UTC()}
	epochs := [][]flow.Record{sortedEpoch(0, 40), sortedEpoch(1, 14000), sortedEpoch(2, 40)}
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	sw.SetBlockEpochs(2)
	for i := range epochs {
		if err := sw.Add(SegmentEpoch{Time: times[i], Records: epochs[i]}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return times, epochs, buf.Bytes()
}

// TestColdTruncationEveryByte: a segment image cut at every byte offset
// must never panic and never fabricate data — whatever prefix of epochs
// still indexes and decodes must match the original exactly. Checked on
// shared blocks and on an epoch split into pieces.
func TestColdTruncationEveryByte(t *testing.T) {
	const n = 6
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(2000+e), 0).UTC()
		epochs[e] = sortedEpoch(e, 40)
	}
	img := buildSegment(t, SegmentCold, 2, times, epochs)
	splitTimes, splitEpochs, splitImg := splitSegmentImage(t)

	for _, c := range []struct {
		times  []time.Time
		epochs [][]flow.Record
		img    []byte
	}{{times, epochs, img}, {splitTimes, splitEpochs, splitImg}} {
		for cut := 0; cut <= len(c.img); cut++ {
			seg, err := OpenSegmentBytes(c.img[:cut])
			if err != nil {
				continue // rejected outright: fine
			}
			for e := 0; e < seg.Epochs(); e++ {
				got, err := seg.AppendEpochAt(e, nil)
				if err != nil {
					break
				}
				if !got.Time.Equal(c.times[e]) || !slices.Equal(got.Records, c.epochs[e]) {
					t.Fatalf("cut=%d epoch %d decoded to different data", cut, e)
				}
			}
			seg.Close()
		}
	}
}

// TestColdCorruptionNoPanic flips every byte of a segment image in turn;
// open/decode may fail or (for immaterial flips inside compressed
// padding) succeed, but must never panic or read out of bounds.
func TestColdCorruptionNoPanic(t *testing.T) {
	const n = 4
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(3000+e), 0).UTC()
		epochs[e] = sortedEpoch(e, 30)
	}
	img := buildSegment(t, SegmentCold, 2, times, epochs)

	mut := make([]byte, len(img))
	for off := 0; off < len(img); off++ {
		copy(mut, img)
		mut[off] ^= 0xFF
		seg, err := OpenSegmentBytes(mut)
		if err != nil {
			continue
		}
		for e := 0; e < seg.Epochs(); e++ {
			if _, err := seg.AppendEpochAt(e, nil); err != nil {
				break
			}
		}
		seg.Close()
	}
}

// FuzzColdDecode fuzzes the full segment open + decode path: arbitrary
// bytes must never panic and successfully decoded epochs must respect
// their declared record counts.
func FuzzColdDecode(f *testing.F) {
	var times []time.Time
	var epochs [][]flow.Record
	for e := 0; e < 5; e++ {
		times = append(times, time.Unix(int64(4000+e), 0).UTC())
		epochs = append(epochs, epochRecords(e, 25))
	}
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	sw.SetBlockEpochs(2)
	for i := range epochs {
		if err := sw.Add(SegmentEpoch{Time: times[i], Records: epochs[i]}); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add([]byte(segMagic + "\x01\x00"))
	f.Add([]byte(segMagic + "\x02\x00"))
	f.Add([]byte{})
	_, _, split := splitSegmentImage(f)
	f.Add(split)
	for _, v := range []byte{1, segVersion} {
		f.Add(hugeCountSegmentImage(f, v))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		seg, err := OpenSegmentBytes(data)
		if err != nil {
			return
		}
		var rec []flow.Record
		for e := 0; e < seg.Epochs(); e++ {
			ep, err := seg.AppendEpochAt(e, rec[:0])
			if err != nil {
				break
			}
			rec = ep.Records
			if len(ep.Records) != seg.EpochLen(e) {
				t.Fatalf("epoch %d decoded %d records, header says %d", e, len(ep.Records), seg.EpochLen(e))
			}
			if len(ep.Records) == 0 {
				continue
			}
			// A filtered read of a decodable epoch may only skip pieces
			// that hold no match.
			f := Filter{SrcIP: ep.Records[len(ep.Records)/2].Key.SrcIP}
			want := f.Apply(ep.Records)
			got, err := seg.AppendEpochMatching(e, f, nil)
			if err != nil {
				t.Fatalf("epoch %d decodes whole but not filtered: %v", e, err)
			}
			if !slices.Equal(got.Records, want) {
				t.Fatalf("epoch %d filtered read returned %d records, want %d", e, len(got.Records), len(want))
			}
		}
		seg.Close()
	})
}

// TestRollupAccuracy: a rollup epoch must hold exactly the true top-K of
// the merged source epochs (by summed count) and exact aggregate totals,
// in key-sorted order.
func TestRollupAccuracy(t *testing.T) {
	const n, recs, k = 8, 300, 20
	rng := rand.New(rand.NewPCG(7, 9))
	times := make([]time.Time, n)
	epochs := make([][]flow.Record, n)
	truth := map[flow.Key]uint64{}
	var totalRecords, totalPackets uint64
	for e := 0; e < n; e++ {
		times[e] = time.Unix(int64(5000+e*60), 0).UTC()
		eps := sortedEpoch(0, recs) // stable keyset
		for i := range eps {
			eps[i].Count = uint32(1 + rng.IntN(10000))
			truth[eps[i].Key] += uint64(eps[i].Count)
			totalPackets += uint64(eps[i].Count)
		}
		totalRecords += uint64(len(eps))
		epochs[e] = eps
	}
	seg, err := OpenSegmentBytes(buildSegment(t, SegmentCold, 3, times, epochs))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()

	rolled, err := buildRollup(seg, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(rolled.Records) != k {
		t.Fatalf("rollup kept %d records, want %d", len(rolled.Records), k)
	}
	if rolled.Span != n || rolled.TotalRecords != totalRecords || rolled.TotalPackets != totalPackets {
		t.Fatalf("rollup totals span=%d recs=%d pkts=%d, want %d/%d/%d",
			rolled.Span, rolled.TotalRecords, rolled.TotalPackets, n, totalRecords, totalPackets)
	}
	if !rolled.Time.Equal(times[0]) {
		t.Fatalf("rollup time %v, want first source epoch %v", rolled.Time, times[0])
	}

	// The kept set must be exactly the truth's top-K multiset of counts.
	counts := make([]uint64, 0, len(truth))
	for _, c := range truth {
		counts = append(counts, c)
	}
	slices.SortFunc(counts, func(a, b uint64) int {
		if a > b {
			return -1
		} else if a < b {
			return 1
		}
		return 0
	})
	floor := counts[k-1]
	for i, r := range rolled.Records {
		want := truth[r.Key]
		if uint64(r.Count) != want {
			t.Fatalf("rollup record %d count %d, truth %d", i, r.Count, want)
		}
		if want < floor {
			t.Fatalf("rollup kept key with count %d below top-%d floor %d", want, k, floor)
		}
		if i > 0 && !lessWords(rolled.Records[i-1].Key, r.Key) {
			t.Fatalf("rollup records not key-sorted at %d", i)
		}
	}

	// Round-trip through a rollup segment keeps the tier metadata.
	rimg := bytes.Buffer{}
	sw := NewSegmentWriter(&rimg, SegmentRollup)
	if err := sw.Add(rolled); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rseg, err := OpenSegmentBytes(rimg.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	defer rseg.Close()
	info := rseg.EpochInfo(0)
	if info.Tier != "rollup" || info.Span != n || info.TotalRecords != totalRecords || info.TotalPackets != totalPackets {
		t.Fatalf("rollup segment info = %+v", info)
	}
	got, err := rseg.AppendEpochAt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Records, rolled.Records) {
		t.Fatal("rollup segment decode diverges")
	}
}

// TestSegmentEmpty: a closed-empty segment is valid and holds nothing.
func TestSegmentEmpty(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := OpenSegmentBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if seg.Epochs() != 0 {
		t.Fatalf("empty segment has %d epochs", seg.Epochs())
	}
	seg.Close()
}

// TestSegmentRejectsUnsorted: out-of-order epoch timestamps are refused
// at write time, not discovered at read time.
func TestSegmentRejectsUnsorted(t *testing.T) {
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	if err := sw.Add(SegmentEpoch{Time: time.Unix(100, 0), Records: nil}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Add(SegmentEpoch{Time: time.Unix(99, 0), Records: nil}); err == nil {
		t.Fatal("out-of-order epoch accepted")
	}
}

// TestSegmentRejectsDescendingKeys: an epoch whose records are not in
// packed-key order is refused at write time, and the writer stays failed,
// instead of encoding wrapped deltas that decode without error.
func TestSegmentRejectsDescendingKeys(t *testing.T) {
	recs := sortedEpoch(0, 100)
	slices.Reverse(recs)
	var buf bytes.Buffer
	sw := NewSegmentWriter(&buf, SegmentCold)
	if err := sw.Add(SegmentEpoch{Time: time.Unix(100, 0), Records: recs}); err == nil {
		t.Fatal("descending epoch accepted")
	}
	if err := sw.Close(); err == nil {
		t.Fatal("Close succeeded after a refused epoch")
	}
}

// TestSegmentAcceptsEqualKeys: adjacent equal keys are in order (the hot
// Writer stores unfolded duplicates) and round-trip unchanged.
func TestSegmentAcceptsEqualKeys(t *testing.T) {
	k := flow.Key{SrcIP: 1, DstIP: 2, DstPort: 80, Proto: 6}
	recs := []flow.Record{
		{Key: flow.Key{SrcIP: 1}, Count: 1},
		{Key: k, Count: 3},
		{Key: k, Count: 5},
		{Key: flow.Key{SrcIP: 9}, Count: 2},
	}
	data := buildSegment(t, SegmentCold, 0, []time.Time{time.Unix(100, 0)}, [][]flow.Record{recs})
	seg, err := OpenSegmentBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	ep, err := seg.AppendEpochAt(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ep.Records, recs) {
		t.Fatalf("decoded %v, want %v", ep.Records, recs)
	}
}

// TestOpenAutoDetect: Open returns a flat mapped source for a file and a
// tiered source for a directory, both through EpochSource.
func TestOpenAutoDetect(t *testing.T) {
	dir := t.TempDir()
	filePath := filepath.Join(dir, "flat.frec")
	writeStoreFile(t, filePath, 3)

	src, err := Open(filePath)
	if err != nil {
		t.Fatal(err)
	}
	if src.Epochs() != 3 {
		t.Fatalf("flat source epochs = %d", src.Epochs())
	}
	if _, ok := src.(*Mapped); !ok {
		t.Fatalf("flat path opened as %T", src)
	}
	src.Close()

	tdir := filepath.Join(dir, "tiered")
	tw, _, err := OpenTiered(tdir, TieredOptions{HotEpochs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		if err := tw.WriteEpoch(time.Unix(int64(100+e), 0), epochRecords(e, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	src, err = Open(tdir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := src.(*TieredSource); !ok {
		t.Fatalf("dir path opened as %T", src)
	}
	if src.Epochs() != 3 {
		t.Fatalf("tiered source epochs = %d", src.Epochs())
	}
	src.Close()
	_ = os.Remove(filePath)
}

// TestColdRejectsImplausibleRawLen: a block whose headers declare far
// more raw data than its DEFLATE stream could possibly inflate (the
// format's ~1032x ceiling) must be rejected at open, before blockRaw
// would allocate the declared size — a tiny hostile file must not be
// able to trigger a multi-gigabyte allocation.
func TestColdRejectsImplausibleRawLen(t *testing.T) {
	frame := binary.AppendUvarint(nil, 1) // one epoch in the block
	frame = binary.AppendUvarint(frame, uint64(time.Unix(1700000000, 0).UnixNano()))
	frame = binary.AppendUvarint(frame, 1)     // record count
	frame = binary.AppendUvarint(frame, 1<<30) // keysLen: passes the per-field cap
	frame = binary.AppendUvarint(frame, 1<<30) // countsLen
	frame = binary.AppendUvarint(frame, 1)     // span
	frame = binary.AppendUvarint(frame, 1)     // totalRecords
	frame = binary.AppendUvarint(frame, 1)     // totalPackets
	frame = append(frame, 0xde, 0xad)          // 2-byte "compressed" stream

	data := append([]byte(segMagic), 1, byte(SegmentCold)) // version 1 header layout
	data = binary.AppendUvarint(data, uint64(len(frame)))
	data = append(data, frame...)

	if _, err := OpenSegmentBytes(data); err == nil {
		t.Fatal("segment declaring 2 GiB of raw data from a 2-byte stream opened without error")
	}
}

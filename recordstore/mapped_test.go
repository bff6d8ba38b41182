package recordstore

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/flow"
)

// buildStore writes epochs epochs of n pseudo-random records each and
// returns the file path plus the encoded bytes.
func buildStore(t testing.TB, epochs, n int) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rng := uint64(0x9E3779B97F4A7C15)
	for e := 0; e < epochs; e++ {
		recs := make([]flow.Record, n)
		for i := range recs {
			rng = rng*6364136223846793005 + 1442695040888963407
			recs[i] = flow.Record{
				Key: flow.Key{
					SrcIP:   uint32(rng >> 32),
					DstIP:   uint32(rng),
					SrcPort: uint16(rng >> 16),
					DstPort: uint16(rng >> 48),
					Proto:   uint8(6 + rng%2*11),
				},
				Count: uint32(rng%100000 + 1),
			}
		}
		if err := w.WriteEpoch(time.Unix(int64(1700000000+60*e), 0), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "mapped.frec")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// TestMappedMatchesStreamedReader is the byte-equivalence contract: every
// epoch decoded through the mapped random-access path must be identical —
// timestamp and records — to the same epoch streamed through Reader.
func TestMappedMatchesStreamedReader(t *testing.T) {
	path, data := buildStore(t, 7, 500)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Epochs() != 7 {
		t.Fatalf("indexed %d epochs, want 7", m.Epochs())
	}
	if m.Truncated() {
		t.Fatal("complete store reported truncated")
	}

	r := NewReader(bytes.NewReader(data))
	for i := 0; ; i++ {
		streamed, err := r.ReadEpoch()
		if errors.Is(err, io.EOF) {
			if i != m.Epochs() {
				t.Fatalf("streamed %d epochs, mapped %d", i, m.Epochs())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		mapped, err := m.EpochAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if !mapped.Time.Equal(streamed.Time) {
			t.Fatalf("epoch %d: mapped time %v, streamed %v", i, mapped.Time, streamed.Time)
		}
		if !reflect.DeepEqual(mapped.Records, streamed.Records) {
			t.Fatalf("epoch %d: mapped records differ from streamed", i)
		}
		if m.EpochLen(i) != len(streamed.Records) {
			t.Fatalf("epoch %d: EpochLen %d, want %d", i, m.EpochLen(i), len(streamed.Records))
		}
		if !m.EpochTime(i).Equal(streamed.Time) {
			t.Fatalf("epoch %d: EpochTime %v, want %v", i, m.EpochTime(i), streamed.Time)
		}
	}

	// Random access out of order must decode the same epochs again.
	for _, i := range []int{6, 0, 3} {
		ep, err := m.EpochAt(i)
		if err != nil {
			t.Fatal(err)
		}
		if len(ep.Records) != m.EpochLen(i) {
			t.Fatalf("re-decode epoch %d: %d records, want %d", i, len(ep.Records), m.EpochLen(i))
		}
	}
	if _, err := m.EpochAt(7); err == nil {
		t.Fatal("EpochAt accepted out-of-range index")
	}
	if _, err := m.EpochAt(-1); err == nil {
		t.Fatal("EpochAt accepted negative index")
	}
}

func TestMappedRange(t *testing.T) {
	path, _ := buildStore(t, 5, 10) // timestamps 1700000000 + 60e
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	at := func(e int) time.Time { return time.Unix(int64(1700000000+60*e), 0) }
	cases := []struct {
		t0, t1 time.Time
		lo, hi int
	}{
		{at(0), at(5), 0, 5},
		{at(1), at(3), 1, 3},
		{at(1).Add(time.Second), at(3), 2, 3},
		{at(0), time.Time{}, 0, 5}, // zero t1: unbounded
		{at(4).Add(time.Minute), time.Time{}, 5, 5},
	}
	for i, tc := range cases {
		lo, hi := m.Range(tc.t0, tc.t1)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("case %d: Range = [%d,%d), want [%d,%d)", i, lo, hi, tc.lo, tc.hi)
		}
	}
}

// TestMappedRangeBoundaries pins the inclusive/exclusive convention the
// query layer's from=/to= parameters rely on: [t0, t1) — an epoch
// stamped exactly t0 is included, one stamped exactly t1 is excluded —
// covering the first and last epoch of the store explicitly.
func TestMappedRangeBoundaries(t *testing.T) {
	path, _ := buildStore(t, 5, 10) // timestamps 1700000000 + 60e, epochs 0..4
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	at := func(e int) time.Time { return time.Unix(int64(1700000000+60*e), 0) }
	cases := []struct {
		name   string
		t0, t1 time.Time
		lo, hi int
	}{
		{"from == first epoch includes it", at(0), at(1), 0, 1},
		{"from just after first excludes it", at(0).Add(time.Nanosecond), at(2), 1, 2},
		{"from before first clamps to first", at(0).Add(-time.Hour), at(1), 0, 1},
		{"to == last epoch excludes it", at(0), at(4), 0, 4},
		{"to just past last includes it", at(0), at(4).Add(time.Nanosecond), 0, 5},
		{"to beyond the store clamps", at(4), at(4).Add(time.Hour), 4, 5},
		{"adjacent windows tile without overlap", at(2), at(3), 2, 3},
		{"empty window at an epoch stamp", at(2), at(2), 2, 2},
	}
	for _, tc := range cases {
		if lo, hi := m.Range(tc.t0, tc.t1); lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: Range = [%d,%d), want [%d,%d)", tc.name, lo, hi, tc.lo, tc.hi)
		}
	}
	// The tiling property: consecutive [at(e), at(e+1)) windows cover
	// every epoch exactly once.
	covered := make([]int, 5)
	for e := 0; e < 5; e++ {
		lo, hi := m.Range(at(e), at(e+1))
		for i := lo; i < hi; i++ {
			covered[i]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Errorf("epoch %d covered %d times by tiled windows", i, n)
		}
	}
}

// TestMappedTruncatedTail: a store whose last frame is incomplete — a live
// file mid-append — indexes the complete epochs and flags the tail.
func TestMappedTruncatedTail(t *testing.T) {
	_, data := buildStore(t, 3, 50)
	for _, cut := range []int{1, 7, len(data) / 2} {
		m, err := NewMappedBytes(data[:len(data)-cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !m.Truncated() {
			t.Errorf("cut %d: truncation not reported", cut)
		}
		if m.Epochs() >= 3 {
			t.Errorf("cut %d: %d epochs indexed from truncated store", cut, m.Epochs())
		}
		for i := 0; i < m.Epochs(); i++ {
			if _, err := m.EpochAt(i); err != nil {
				t.Errorf("cut %d: epoch %d failed to decode: %v", cut, i, err)
			}
		}
	}
}

func TestMappedRejectsGarbage(t *testing.T) {
	if _, err := NewMappedBytes(nil); !errors.Is(err, ErrNotStore) {
		t.Errorf("empty data: %v, want ErrNotStore", err)
	}
	if _, err := NewMappedBytes([]byte("NOPE\x01rest")); !errors.Is(err, ErrNotStore) {
		t.Errorf("bad magic: %v, want ErrNotStore", err)
	}
	if _, err := NewMappedBytes([]byte("FREC\x63")); err == nil {
		t.Error("accepted unknown version")
	}
	path := filepath.Join(t.TempDir(), "missing.frec")
	if _, err := OpenMapped(path); err == nil {
		t.Error("opened a missing file")
	}
	// Header-only store: zero epochs, no error.
	hdr := filepath.Join(t.TempDir(), "hdr.frec")
	if err := os.WriteFile(hdr, []byte("FREC\x01"), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := OpenMapped(hdr)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Epochs() != 0 || m.Truncated() {
		t.Errorf("header-only store: %d epochs, truncated=%v", m.Epochs(), m.Truncated())
	}
}

func TestMappedCloseIdempotent(t *testing.T) {
	path, _ := buildStore(t, 1, 5)
	m, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFilterStringRoundTrip(t *testing.T) {
	cases := []Filter{
		{},
		{SrcIP: 0x0A000001},
		{DstIP: 0xC0A80101, DstPort: 443, Proto: 6},
		{SrcPort: 1234, MinPackets: 99},
		{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 5, MinPackets: 6},
	}
	for _, f := range cases {
		got, err := ParseFilter(f.String())
		if err != nil {
			t.Errorf("ParseFilter(%q): %v", f.String(), err)
			continue
		}
		if got != f {
			t.Errorf("round trip %q: got %+v, want %+v", f.String(), got, f)
		}
	}
}

// FuzzMapped feeds arbitrary bytes through the mapped index and decoder:
// errors are fine, panics and runaway allocations are not. Valid stores
// must index without error.
func FuzzMapped(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	_ = w.WriteEpoch(time.Unix(1, 0), []flow.Record{
		{Key: flow.Key{SrcIP: 1, Proto: 6}, Count: 2},
		{Key: flow.Key{SrcIP: 2, Proto: 17}, Count: 9},
	})
	_ = w.Flush()
	f.Add(valid.Bytes())
	f.Add([]byte("FREC\x01"))
	f.Add([]byte{})
	f.Add(hugeCountHotImage())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := NewMappedBytes(data)
		if err != nil {
			return
		}
		for i := 0; i < m.Epochs(); i++ {
			_, _ = m.EpochAt(i)
		}
	})
}

package main

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/apps"
	"repro/flow"
	"repro/query"
	"repro/recordstore"
)

func writeStore(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "r.frec")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := recordstore.NewWriter(f)
	epoch1 := []flow.Record{
		{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 2, DstPort: 443, Proto: 6}, Count: 100},
		{Key: flow.Key{SrcIP: 0x0A000002, DstIP: 2, DstPort: 80, Proto: 6}, Count: 10},
	}
	epoch2 := []flow.Record{
		{Key: flow.Key{SrcIP: 0x0A000003, DstIP: 3, DstPort: 53, Proto: 17}, Count: 7},
	}
	if err := w.WriteEpoch(time.Unix(1700000000, 0), epoch1); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEpoch(time.Unix(1700000300, 0), epoch2); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQuerySummary(t *testing.T) {
	path := writeStore(t)
	var buf bytes.Buffer
	if err := run([]string{"-store", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "total: 2 epochs, 3 records, 3 matched") {
		t.Errorf("summary output: %q", out)
	}
}

func TestQueryFilterAndTop(t *testing.T) {
	path := writeStore(t)
	var buf bytes.Buffer
	if err := run([]string{"-store", path, "-filter", "proto=6", "-top", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "3 records, 2 matched") && !strings.Contains(out, "2 matched") {
		t.Errorf("filter output: %q", out)
	}
	if !strings.Contains(out, "100 pkts") {
		t.Errorf("top output missing largest flow: %q", out)
	}
	if strings.Contains(out, "10 pkts") {
		t.Errorf("-top 1 printed more than one flow: %q", out)
	}
}

func TestQueryErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("accepted missing -store")
	}
	if err := run([]string{"-store", "/does/not/exist"}, &buf); err == nil {
		t.Error("accepted missing file")
	}
	if err := run([]string{"-store", writeStore(t), "-filter", "bogus"}, &buf); err == nil {
		t.Error("accepted bad filter")
	}
	if err := run([]string{"-store", writeStore(t), "-remote", "http://x"}, &buf); err == nil {
		t.Error("accepted both -store and -remote")
	}
}

// TestQueryRemote drives the CLI against an in-process query handler and
// checks the output matches the local mode's shape.
func TestQueryRemote(t *testing.T) {
	path := writeStore(t)
	m, err := recordstore.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	static, err := query.SumStore(m)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(query.NewHandler(query.Config{
		TopK:  static,
		Store: query.StaticStore(m),
	}))
	defer srv.Close()

	var buf bytes.Buffer
	if err := run([]string{"-remote", srv.URL, "-filter", "proto=6", "-top", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "total: 2 epochs, 3 records, 2 matched") {
		t.Errorf("remote summary: %q", out)
	}
	if !strings.Contains(out, "100 pkts") {
		t.Errorf("remote top missing largest flow: %q", out)
	}

	var plain bytes.Buffer
	if err := run([]string{"-remote", srv.URL}, &plain); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plain.String(), "total: 2 epochs, 3 records, 3 matched") {
		t.Errorf("remote unfiltered summary: %q", plain.String())
	}

	if err := run([]string{"-remote", "http://127.0.0.1:1/nope"}, &buf); err == nil {
		t.Error("accepted unreachable daemon")
	}
}

// TestQueryTieredPushdownOutput: the local scan filters inside the store
// (AppendEpochMatching); on a tiered store whose cold epochs are cut
// into pieces its output must be byte-identical to filtering every fully
// decoded epoch afterwards.
func TestQueryTieredPushdownOutput(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tiered")
	tw, _, err := recordstore.OpenTiered(dir, recordstore.TieredOptions{HotEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	const perEpoch = 20000
	for e := 0; e < 6; e++ {
		recs := make([]flow.Record, 0, perEpoch)
		for i := 0; i < perEpoch; i++ {
			recs = append(recs, flow.Record{
				Key: flow.Key{
					SrcIP: uint32(0x0A000000 + (i%200)*1021), DstIP: uint32(0xC0A80000 + i + e),
					SrcPort: uint16(1024 + i%7), DstPort: uint16(80 + 363*(i%2)), Proto: uint8(6 + 11*(i%3/2)),
				},
				Count: uint32(1 + (i*31+e*7)%97),
			})
		}
		if err := tw.WriteEpoch(time.Unix(int64(1700000000+60*e), 0), recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	src, err := recordstore.OpenTieredSource(dir)
	if err != nil {
		t.Fatal(err)
	}
	if src.EpochInfo(0).Tier != "cold" {
		t.Fatalf("epoch 0 is %q, want cold", src.EpochInfo(0).Tier)
	}
	if _, err := src.AppendEpochMatching(0, recordstore.Filter{SrcIP: 0x0A0003FD}, nil); err != nil {
		t.Fatal(err)
	}
	if src.Inflates() != 1 {
		t.Fatalf("src read of a cold epoch inflated %d blocks; want a store whose epochs are cut into pieces", src.Inflates())
	}
	src.Close()

	// reference is the scan without pushdown: decode whole, then filter.
	reference := func(filter recordstore.Filter, top int) string {
		src, err := recordstore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		var b strings.Builder
		var matched []flow.Record
		total := 0
		for i := 0; i < src.Epochs(); i++ {
			ep, err := src.AppendEpochAt(i, nil)
			if err != nil {
				t.Fatal(err)
			}
			hits := filter.Apply(ep.Records)
			total += len(ep.Records)
			matched = append(matched, hits...)
			fmt.Fprintf(&b, "epoch %d  %s  %d records, %d matched\n",
				i, ep.Time.Format("2006-01-02T15:04:05.000Z07:00"), len(ep.Records), len(hits))
		}
		fmt.Fprintf(&b, "total: %d epochs, %d records, %d matched\n", src.Epochs(), total, len(matched))
		if top > 0 {
			for i, r := range apps.TopTalkers(matched, top) {
				fmt.Fprintf(&b, "%3d. %-45s %d pkts\n", i+1, r.Key, r.Count)
			}
		}
		return b.String()
	}

	for _, expr := range []string{"", "src=10.0.3.253", "src=10.0.3.253,dport=443", "src=10.0.3.254", "proto=17,minpkts=50", "dst=192.168.1.0"} {
		filter, err := recordstore.ParseFilter(expr)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run([]string{"-store", dir, "-filter", expr, "-top", "5"}, &got); err != nil {
			t.Fatal(err)
		}
		if expr == "src=10.0.3.253" && !strings.Contains(got.String(), "total: 6 epochs, 120000 records, 600 matched") {
			t.Errorf("filter %q: unexpected totals:\n%s", expr, got.String())
		}
		if want := reference(filter, 5); got.String() != want {
			t.Errorf("filter %q: output differs from decode-then-filter\ngot:\n%s\nwant:\n%s", expr, got.String(), want)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/adaptive"
	"repro/detect"
	"repro/flow"
	"repro/flowmon"
	"repro/internal/faults"
	"repro/netflow"
	"repro/pcapio"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
	"repro/trace"
)

func TestRunModes(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("accepted missing mode")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestExportErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"export", "-algo", "nope"}, &buf); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if err := run([]string{"export", "-pcap", "/does/not/exist"}, &buf); err == nil {
		t.Error("accepted missing pcap")
	}
}

func TestExportCollectLoopback(t *testing.T) {
	// Start the collector on an ephemeral port, export a generated trace
	// to it, and check both halves report consistent record counts.
	addr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	port := probe.LocalAddr().String()
	probe.Close()

	var (
		wg         sync.WaitGroup
		collectOut bytes.Buffer
		collectErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		collectErr = run([]string{"collect", "-listen", port, "-idle", "500ms", "-top", "3"}, &collectOut)
	}()

	// Give the listener a moment to bind, then export. Three flows tied
	// at the top count go first, in descending key order: the summary
	// must rank them by key.
	time.Sleep(200 * time.Millisecond)
	tied := []flow.Record{
		{Key: flow.Key{SrcIP: 0x0a0000ff, DstIP: 1, Proto: 17}, Count: 1 << 30},
		{Key: flow.Key{SrcIP: 0x0a000080, DstIP: 1, Proto: 17}, Count: 1 << 30},
		{Key: flow.Key{SrcIP: 0x0a000001, DstIP: 1, Proto: 17}, Count: 1 << 30},
	}
	conn, err := net.Dial("udp", port)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exp := netflow.NewExporter(func(b []byte) error {
		_, err := conn.Write(b)
		return err
	})
	if err := exp.Export(tied, 100); err != nil {
		t.Fatal(err)
	}
	var exportOut bytes.Buffer
	err = run([]string{"export", "-profile", "ISP2", "-flows", "500",
		"-mem", "65536", "-to", port}, &exportOut)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	wg.Wait()
	if collectErr != nil {
		t.Fatalf("collect: %v", collectErr)
	}
	if !strings.Contains(exportOut.String(), "exported") {
		t.Errorf("export output: %q", exportOut.String())
	}
	if !strings.Contains(collectOut.String(), "collected") {
		t.Errorf("collect output: %q", collectOut.String())
	}
	for i, r := range []flow.Record{tied[2], tied[1], tied[0]} {
		line := fmt.Sprintf("%3d. %-45s %d pkts\n", i+1, r.Key, r.Count)
		if !strings.Contains(collectOut.String(), line) {
			t.Errorf("collect output lacks tied rank line %q:\n%s", line, collectOut.String())
		}
	}
}

func TestExportFromPcap(t *testing.T) {
	// Write a small pcap, then export from it to a local collector socket
	// we drain manually.
	dir := t.TempDir()
	path := filepath.Join(dir, "in.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := pcapio.NewWriter(f)
	k := flow.Key{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	for i := 0; i < 10; i++ {
		if err := w.WritePacket(flow.Packet{Key: k, Size: 100}, time.Unix(0, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	var out bytes.Buffer
	err = run([]string{"export", "-pcap", path, "-mem", "65536",
		"-to", sink.LocalAddr().String()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "processed 10 packets, exported 1 flow records") {
		t.Errorf("export output: %q", out.String())
	}
}

func TestServeStoresEpochs(t *testing.T) {
	// Pick an ephemeral port, serve briefly, export into it, then verify
	// the record store holds the epoch.
	addr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	probe, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	port := probe.LocalAddr().String()
	probe.Close()

	store := filepath.Join(t.TempDir(), "out.frec")
	var (
		wg       sync.WaitGroup
		serveOut bytes.Buffer
		serveErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = run([]string{"serve", "-listen", port, "-store", store,
			"-gap", "200ms", "-for", "2s"}, &serveOut)
	}()

	time.Sleep(300 * time.Millisecond)
	var exportOut bytes.Buffer
	err = run([]string{"export", "-profile", "ISP2", "-flows", "300",
		"-mem", "65536", "-to", port}, &exportOut)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}

	f, err := os.Open(store)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	epochs, err := recordstore.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("no epochs stored")
	}
	total := 0
	for _, ep := range epochs {
		total += len(ep.Records)
	}
	if total == 0 {
		t.Error("stored epochs carry no records")
	}
	if !strings.Contains(serveOut.String(), "done:") {
		t.Errorf("serve output: %q", serveOut.String())
	}
}

// TestExportEpochAligned: -epochpkts rotates epochs through the
// double-buffered drain, exporting each over UDP as it completes.
func TestExportEpochAligned(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	var out bytes.Buffer
	err = run([]string{"export", "-profile", "ISP2", "-flows", "400", "-mem", "65536",
		"-epochpkts", "150", "-to", sink.LocalAddr().String()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "epochs") {
		t.Errorf("epoch-aligned export output: %q", out.String())
	}
	// "in N epochs" with N >= 2 proves rotation actually happened.
	var pkts, recs, epochs int
	if _, err := fmt.Sscanf(out.String(), "processed %d packets, exported %d flow records in %d epochs",
		&pkts, &recs, &epochs); err != nil {
		t.Fatalf("unparseable output %q: %v", out.String(), err)
	}
	if epochs < 2 {
		t.Errorf("only %d epochs for %d packets with -epochpkts 150", epochs, pkts)
	}
	if recs == 0 {
		t.Error("no records exported")
	}
	// The drain-timing summary from the adaptive instruments rides the
	// final accounting.
	for _, stage := range []string{"drain extract:", "drain flush:", "drain reset:"} {
		if !strings.Contains(out.String(), stage) {
			t.Errorf("output missing %q summary:\n%s", stage, out.String())
		}
	}
}

// TestExportBatchedMatchesPerPacket: export feeds the recorder in
// batches, and an epoch budget that does not divide the batch size still
// yields exactly the packet, record and epoch counts of feeding the same
// trace per packet through an adaptive manager with the same config.
func TestExportBatchedMatchesPerPacket(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	var out bytes.Buffer
	err = run([]string{"export", "-profile", "ISP2", "-flows", "3000",
		"-epochpkts", "1000", "-to", sink.LocalAddr().String()}, &out)
	if err != nil {
		t.Fatal(err)
	}

	// The reference: export's defaults (-mem 1<<20, -seed 1) and its
	// manager config, fed one packet at a time.
	tr, err := trace.Generate(trace.ISP2, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 1 << 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantRecs int
	m, err := adaptive.NewManager(rec, adaptive.Config{
		Capacity:        1,
		HighWatermark:   1,
		MaxEpochPackets: 1000,
		CheckEvery:      1 << 62,
	}, func(_ int, recs []flow.Record) { wantRecs += len(recs) })
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stream(1)
	for p, ok := s.Next(); ok; p, ok = s.Next() {
		m.Update(p)
	}
	if m.EpochPackets() > 0 {
		m.Flush()
	}

	want := fmt.Sprintf("processed %d packets, exported %d flow records in %d epochs to %s",
		m.TotalPackets(), wantRecs, m.Epoch(), sink.LocalAddr())
	if got, _, _ := strings.Cut(out.String(), "\n"); got != want {
		t.Errorf("export printed %q, want %q", got, want)
	}
	if m.Epoch() < 3 {
		t.Errorf("only %d epochs: no rotation fell inside a batch", m.Epoch())
	}
}

// TestServeWithQueryAPI runs the full live loop: serve with -http, export
// a trace into it, then hit /topk and /epochs while the collector is
// still up.
func TestServeWithQueryAPI(t *testing.T) {
	udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	udpAddr := udpProbe.LocalAddr().String()
	udpProbe.Close()
	tcpProbe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := tcpProbe.Addr().String()
	tcpProbe.Close()

	store := filepath.Join(t.TempDir(), "live.frec")
	var (
		wg       sync.WaitGroup
		serveOut bytes.Buffer
		serveErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = run([]string{"serve", "-listen", udpAddr, "-store", store,
			"-gap", "200ms", "-for", "3s", "-http", httpAddr}, &serveOut)
	}()

	time.Sleep(300 * time.Millisecond)
	var exportOut bytes.Buffer
	if err := run([]string{"export", "-profile", "ISP2", "-flows", "300",
		"-mem", "65536", "-to", udpAddr}, &exportOut); err != nil {
		t.Fatalf("export: %v", err)
	}
	// Wait for the quiet gap to close the epoch, then query live.
	time.Sleep(600 * time.Millisecond)

	var tk query.TopKResponse
	if err := getJSON("http://"+httpAddr+"/topk?k=5", &tk); err != nil {
		t.Fatalf("/topk: %v", err)
	}
	if len(tk.Flows) == 0 {
		t.Error("/topk returned no flows while the collector is live")
	}
	var eps query.EpochsResponse
	if err := getJSON("http://"+httpAddr+"/epochs", &eps); err != nil {
		t.Fatalf("/epochs: %v", err)
	}
	if len(eps.Epochs) == 0 {
		t.Error("/epochs empty while the store has an epoch")
	}

	// The ops surface shares the query listener: Prometheus text and
	// JSON metrics, plus the structured health snapshot.
	prom := getBody(t, "http://"+httpAddr+"/metrics")
	for _, want := range []string{
		"collector_datagrams_total",
		"collector_epoch_records",
		"store_epochs_written_total",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %s:\n%s", want, prom)
		}
	}
	var mj map[string]any
	if err := getJSON("http://"+httpAddr+"/metrics?format=json", &mj); err != nil {
		t.Fatalf("/metrics?format=json: %v", err)
	}
	if v, ok := mj["collector_datagrams_total"].(float64); !ok || v == 0 {
		t.Errorf("json metrics: collector_datagrams_total = %v, want > 0", mj["collector_datagrams_total"])
	}
	var h telemetry.Health
	if err := getJSON("http://"+httpAddr+"/healthz", &h); err != nil {
		t.Fatalf("/healthz: %v", err)
	}
	if h.Status != "ok" {
		t.Errorf("health status %q (last_error %q), want ok", h.Status, h.LastError)
	}
	if h.Store == nil || h.Store.State != "created" {
		t.Errorf("health store = %+v, want state created", h.Store)
	}
	if h.Epochs == 0 {
		t.Error("health reports zero epochs after an export landed")
	}
	// pprof must stay off without -debug.
	if resp, err := http.Get("http://" + httpAddr + "/debug/pprof/"); err != nil {
		t.Fatalf("pprof probe: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("/debug/pprof/ status %d without -debug, want 404", resp.StatusCode)
		}
	}

	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	if !strings.Contains(serveOut.String(), "query API on http://") {
		t.Errorf("serve output missing query API line: %q", serveOut.String())
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(b)
}

func getJSON(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestServeBadArgs(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"serve", "-store", "/no/such/dir/x.frec", "-for", "1ms"}, &buf); err == nil {
		t.Error("accepted uncreatable store path")
	}
}

// TestExportDetectOnDrain runs epoch-aligned export with the detection
// subsystem attached to the drain worker: the run must complete, rotate
// multiple epochs, and surface no drain error.
func TestExportDetectOnDrain(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	var out bytes.Buffer
	err = run([]string{"export", "-profile", "ISP2", "-flows", "400", "-mem", "65536",
		"-epochpkts", "150", "-detect", "-to", sink.LocalAddr().String()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var pkts, recs, epochs int
	line := out.String()
	if i := strings.LastIndex(line, "processed "); i >= 0 {
		line = line[i:]
	}
	if _, err := fmt.Sscanf(line, "processed %d packets, exported %d flow records in %d epochs",
		&pkts, &recs, &epochs); err != nil {
		t.Fatalf("unparseable output %q: %v", out.String(), err)
	}
	if epochs < 2 {
		t.Errorf("only %d epochs rotated with the detector attached", epochs)
	}
}

func TestDetectFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"export", "-detect", "-flows", "10"}, &buf); err == nil {
		t.Error("export -detect without -epochpkts accepted")
	}
	if err := run([]string{"serve", "-alerts", "-for", "1ms"}, &buf); err == nil {
		t.Error("serve -alerts without -detect accepted")
	}
	if err := run([]string{"serve", "-webhook", "http://x/", "-for", "1ms"}, &buf); err == nil {
		t.Error("serve -webhook without -detect accepted")
	}
}

// TestWebhookSinkDropsWhenStalled pins the bounded-queue contract: with
// the receiver stalled, deliver never blocks the caller (the epoch
// path), overflow is counted as dropped, and close reports the drops —
// queued payloads still go out once the receiver recovers.
func TestWebhookSinkDropsWhenStalled(t *testing.T) {
	unstall := make(chan struct{})
	var served atomic.Int64
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-unstall
		served.Add(1)
	}))
	defer hook.Close()

	s := newWebhookSink(hook.URL)
	alerts := []detect.Alert{{Kind: detect.KindHeavyChange, Epoch: 1, Value: 5000}}
	// Queue capacity is 16 and one delivery can be in flight; flood well
	// past that while the receiver hangs. Every call must return
	// promptly — a blocking deliver would stall epoch rotation.
	const batches = 40
	done := make(chan struct{})
	go func() {
		for i := 0; i < batches; i++ {
			s.deliver(alerts)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("deliver blocked on a stalled receiver")
	}
	if got := s.dropped.Load(); got == 0 || got > batches-16 {
		t.Fatalf("dropped = %d, want in (0, %d]", got, batches-16)
	}

	// Receiver recovers: the queued payloads drain, nothing new is lost.
	close(unstall)
	var out bytes.Buffer
	s.close(&out)
	if served.Load() == 0 {
		t.Error("no queued delivery reached the recovered receiver")
	}
	wantQueued := batches - s.dropped.Load()
	if got := served.Load(); int64(got) != int64(wantQueued) {
		t.Errorf("served %d deliveries, want %d (dropped %d)", got, wantQueued, s.dropped.Load())
	}
	if s.failed.Load() != 0 {
		t.Errorf("failed = %d, want 0", s.failed.Load())
	}
	if !strings.Contains(out.String(), "deliveries dropped") {
		t.Errorf("close did not report drops: %q", out.String())
	}
}

// TestServeDetectWebhook runs the full alerting loop: serve with
// detection and a webhook sink, feed it two epochs whose second contains
// a massive per-flow change and a superspreader, then check /alerts and
// the webhook delivery.
func TestServeDetectWebhook(t *testing.T) {
	udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	udpAddr := udpProbe.LocalAddr().String()
	udpProbe.Close()
	tcpProbe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpAddr := tcpProbe.Addr().String()
	tcpProbe.Close()

	var (
		hookMu   sync.Mutex
		hookBody []byte
	)
	hook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		hookMu.Lock()
		hookBody = append(hookBody, b...)
		hookMu.Unlock()
	}))
	defer hook.Close()

	store := filepath.Join(t.TempDir(), "detect.frec")
	var (
		wg       sync.WaitGroup
		serveOut bytes.Buffer
		serveErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = run([]string{"serve", "-listen", udpAddr, "-store", store,
			"-gap", "200ms", "-for", "4s", "-http", httpAddr,
			"-detect", "-changedelta", "500", "-fanout", "64",
			"-alerts", "-webhook", hook.URL}, &serveOut)
	}()
	time.Sleep(300 * time.Millisecond)

	// Epoch 1: a quiet baseline flow. Epoch 2 (after the quiet gap): the
	// same flow spiked past -changedelta plus a 100-destination scanner.
	conn, err := net.Dial("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exp := netflow.NewExporter(func(b []byte) error {
		_, err := conn.Write(b)
		return err
	})
	hot := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}
	if err := exp.Export([]flow.Record{{Key: hot, Count: 100}}, 700); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // quiet gap closes epoch 1

	recs := []flow.Record{{Key: hot, Count: 5100}}
	for i := 0; i < 100; i++ {
		recs = append(recs, flow.Record{
			Key:   flow.Key{SrcIP: 0x09090909, DstIP: 0xE0000000 | uint32(i), DstPort: 80, Proto: 6},
			Count: 1,
		})
	}
	if err := exp.Export(recs, 700); err != nil {
		t.Fatal(err)
	}
	time.Sleep(600 * time.Millisecond) // quiet gap closes epoch 2

	var alerts query.AlertsResponse
	if err := getJSON("http://"+httpAddr+"/alerts", &alerts); err != nil {
		t.Fatalf("/alerts: %v", err)
	}
	kinds := map[string]int{}
	for _, a := range alerts.Alerts {
		kinds[a.Kind]++
	}
	if kinds["heavychange"] == 0 {
		t.Errorf("no heavy-change alert; got %+v", alerts.Alerts)
	}
	if kinds["superspreader"] == 0 {
		t.Errorf("no superspreader alert; got %+v", alerts.Alerts)
	}
	var changes query.ChangesResponse
	if err := getJSON("http://"+httpAddr+"/changes", &changes); err != nil {
		t.Fatalf("/changes: %v", err)
	}
	found := false
	for _, ep := range changes.Epochs {
		for _, c := range ep.Changes {
			if c.Delta == 5000 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("/changes missing the +5000 delta: %+v", changes.Epochs)
	}

	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
	if !strings.Contains(serveOut.String(), "heavychange") {
		t.Errorf("-alerts printed nothing: %q", serveOut.String())
	}
	hookMu.Lock()
	body := string(hookBody)
	hookMu.Unlock()
	if !strings.Contains(body, "superspreader") {
		t.Errorf("webhook missed the alerts: %q", body)
	}
}

// lockedBuf is a goroutine-safe output buffer for tests that read serve
// output while the serve goroutine is still writing it.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestWebhookSinkRetriesTransientFailure: a receiver that 500s a couple
// of times then recovers must lose nothing — the payload is retried under
// backoff and counted delivered, not failed.
func TestWebhookSinkRetriesTransientFailure(t *testing.T) {
	h := &faults.FlakyHandler{}
	h.FailNext(2, http.StatusInternalServerError)
	hook := httptest.NewServer(h)
	defer hook.Close()

	s := newWebhookSinkWithRetry(hook.URL, 4, 2*time.Millisecond, 10*time.Millisecond)
	s.deliver([]detect.Alert{{Kind: detect.KindForecast, Epoch: 7, Value: 4100}})
	var out bytes.Buffer
	s.close(&out)

	if f, ok := h.Failed(), h.Served(); f != 2 || ok != 1 {
		t.Errorf("receiver saw %d failed + %d served attempts, want 2 + 1", f, ok)
	}
	if s.failed.Load() != 0 {
		t.Errorf("failed = %d, want 0: transient failures must not count as lost", s.failed.Load())
	}
	if s.retries.Load() != 2 {
		t.Errorf("retries = %d, want 2", s.retries.Load())
	}
	if !strings.Contains(out.String(), "2 retries") {
		t.Errorf("close did not report retries: %q", out.String())
	}
}

// TestWebhookSinkRetryBudgetExhausted: a receiver that never accepts
// costs exactly maxAttempts attempts and one counted failure per payload,
// then the sink moves on — no unbounded retry loop at shutdown.
func TestWebhookSinkRetryBudgetExhausted(t *testing.T) {
	h := &faults.FlakyHandler{}
	h.FailNext(100, http.StatusServiceUnavailable) // never recovers within the budget
	hook := httptest.NewServer(h)
	defer hook.Close()

	s := newWebhookSinkWithRetry(hook.URL, 3, 2*time.Millisecond, 10*time.Millisecond)
	s.deliver([]detect.Alert{{Kind: detect.KindAnomaly, Epoch: 1, Metric: "packets"}})
	var out bytes.Buffer
	s.close(&out)

	if got := h.Failed(); got != 3 {
		t.Errorf("receiver saw %d attempts, want exactly the budget of 3", got)
	}
	if s.failed.Load() != 1 {
		t.Errorf("failed = %d, want 1", s.failed.Load())
	}
	if !strings.Contains(out.String(), "1 failed") {
		t.Errorf("close did not report the failure: %q", out.String())
	}
}

func TestServeDurabilityFlagValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"serve", "-checkpoint", "x.ckpt", "-for", "1ms"}, &buf); err == nil {
		t.Error("serve -checkpoint without -detect accepted")
	}
	if err := run([]string{"serve", "-fsync", "sometimes", "-for", "1ms"}, &buf); err == nil {
		t.Error("serve -fsync sometimes accepted")
	}
	if err := run([]string{"serve", "-detect", "-checkpoint", "x.ckpt", "-ckptevery", "0", "-for", "1ms"}, &buf); err == nil {
		t.Error("serve -ckptevery 0 accepted")
	}
}

// TestServeAppendsAcrossRuns: a second serve run on the same store file
// must append after the first run's epochs, not truncate them — the
// reopen path that makes restarts safe.
func TestServeAppendsAcrossRuns(t *testing.T) {
	store := filepath.Join(t.TempDir(), "resume.frec")
	oneRun := func() {
		t.Helper()
		udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		port := udpProbe.LocalAddr().String()
		udpProbe.Close()
		var (
			wg       sync.WaitGroup
			serveOut bytes.Buffer
			serveErr error
		)
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveErr = run([]string{"serve", "-listen", port, "-store", store,
				"-fsync", "epoch", "-gap", "200ms", "-for", "2s"}, &serveOut)
		}()
		time.Sleep(300 * time.Millisecond)
		var exportOut bytes.Buffer
		if err := run([]string{"export", "-profile", "ISP2", "-flows", "200",
			"-mem", "65536", "-to", port}, &exportOut); err != nil {
			t.Fatalf("export: %v", err)
		}
		wg.Wait()
		if serveErr != nil {
			t.Fatalf("serve: %v", serveErr)
		}
	}

	oneRun()
	m, err := recordstore.OpenMapped(store)
	if err != nil {
		t.Fatal(err)
	}
	after1 := m.Epochs()
	m.Close()
	if after1 == 0 {
		t.Fatal("first run stored no epochs")
	}

	oneRun()
	m, err = recordstore.OpenMapped(store)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Epochs() <= after1 {
		t.Fatalf("second run did not append: %d epochs before, %d after", after1, m.Epochs())
	}
}

// TestServeGracefulSigterm: a termination signal mid-run must shut the
// collector down cleanly — final epoch drained and stored, checkpoint
// written, normal exit — well before the -for deadline.
func TestServeGracefulSigterm(t *testing.T) {
	udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	port := udpProbe.LocalAddr().String()
	udpProbe.Close()

	dir := t.TempDir()
	store := filepath.Join(dir, "sig.frec")
	ckpt := filepath.Join(dir, "sig.ckpt")
	out := &lockedBuf{}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- run([]string{"serve", "-listen", port, "-store", store,
			"-fsync", "epoch", "-gap", "200ms", "-for", "1h",
			"-detect", "-checkpoint", ckpt}, out)
	}()

	// Wait for the serve loop to come up, feed it one epoch, let the quiet
	// gap close it.
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "serving on") {
		if time.Now().After(deadline) {
			t.Fatalf("serve never came up: %q", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	var exportOut bytes.Buffer
	if err := run([]string{"export", "-profile", "ISP2", "-flows", "200",
		"-mem", "65536", "-to", port}, &exportOut); err != nil {
		t.Fatalf("export: %v", err)
	}
	time.Sleep(500 * time.Millisecond)

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("serve exited with error after SIGTERM: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down within 10s of SIGTERM")
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Errorf("no shutdown notice in output: %q", out.String())
	}
	if !strings.Contains(out.String(), "done:") {
		t.Errorf("no final summary in output: %q", out.String())
	}

	// The drained epoch made it to the store and the checkpoint exists.
	m, err := recordstore.OpenMapped(store)
	if err != nil {
		t.Fatalf("store after SIGTERM: %v", err)
	}
	defer m.Close()
	if m.Epochs() == 0 {
		t.Error("store empty after graceful shutdown")
	}
	d, err := detect.NewDetector(detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.LoadCheckpoint(ckpt); err != nil {
		t.Fatalf("checkpoint after SIGTERM: %v", err)
	}
	if d.Epochs() == 0 {
		t.Error("checkpoint holds no evaluated epochs")
	}
}

// TestServeTieredStore: serve mode with tiered flags writes a tiered
// directory — hot mmap tier plus compressed cold segments after the
// shutdown compaction — and a second -detect run seeds its baselines
// from that history.
func TestServeTieredStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store.d")
	oneRun := func(extra ...string) string {
		t.Helper()
		udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		port := udpProbe.LocalAddr().String()
		udpProbe.Close()
		var (
			wg       sync.WaitGroup
			serveOut bytes.Buffer
			serveErr error
		)
		args := append([]string{"serve", "-listen", port, "-store", dir,
			"-hotepochs", "1", "-gap", "200ms", "-for", "2500ms"}, extra...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveErr = run(args, &serveOut)
		}()
		time.Sleep(300 * time.Millisecond)
		// Two quiet-gap separated exports: at least two epochs per run, so
		// the shutdown compaction (hot window 1) always has work.
		for i := 0; i < 2; i++ {
			var exportOut bytes.Buffer
			if err := run([]string{"export", "-profile", "ISP2", "-flows", "200",
				"-mem", "65536", "-seed", fmt.Sprint(i + 1), "-to", port}, &exportOut); err != nil {
				t.Fatalf("export: %v", err)
			}
			time.Sleep(400 * time.Millisecond)
		}
		wg.Wait()
		if serveErr != nil {
			t.Fatalf("serve: %v", serveErr)
		}
		return serveOut.String()
	}

	oneRun()
	src, err := recordstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	total := src.Epochs()
	if total < 2 {
		t.Fatalf("tiered store holds %d epochs, want >= 2", total)
	}
	ts, ok := src.(*recordstore.TieredSource)
	if !ok {
		t.Fatalf("Open(%s) = %T, want *recordstore.TieredSource", dir, src)
	}
	if ts.Segments() == 0 {
		t.Fatal("shutdown compaction left no cold segments")
	}
	if info := ts.EpochInfo(0); info.Tier != "cold" {
		t.Fatalf("oldest epoch tier = %q, want cold", info.Tier)
	}
	src.Close()

	// Second run on the same directory: -seedhistory warms the detector
	// from the stored epochs before live traffic arrives.
	out := oneRun("-detect", "-seedhistory", "16")
	if !strings.Contains(out, "seeded baselines from history") {
		t.Fatalf("second run did not seed from history:\n%s", out)
	}
	src, err = recordstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Epochs() <= total {
		t.Fatalf("second run did not append: %d epochs before, %d after", total, src.Epochs())
	}
}

// TestServeFlatStoreVisibleWithoutHTTP: without -http and with -fsync
// off, a closed epoch must still reach the flat store file while serve
// is running, so a reader reopening the file (flowqueryd -store on the
// same path) sees it and a SIGKILL cannot lose it.
func TestServeFlatStoreVisibleWithoutHTTP(t *testing.T) {
	udpProbe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	port := udpProbe.LocalAddr().String()
	udpProbe.Close()

	store := filepath.Join(t.TempDir(), "visible.frec")
	out := &lockedBuf{}
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- run([]string{"serve", "-listen", port, "-store", store,
			"-gap", "200ms", "-for", "3s"}, out)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(out.String(), "serving on") {
		if time.Now().After(deadline) {
			t.Fatalf("serve never came up: %q", out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// One small epoch: far below the store writer's 4 KiB buffer.
	conn, err := net.Dial("udp", port)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	exp := netflow.NewExporter(func(b []byte) error {
		_, err := conn.Write(b)
		return err
	})
	k := flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000002, DstPort: 53, Proto: 17}
	if err := exp.Export([]flow.Record{{Key: k, Count: 7}}, 700); err != nil {
		t.Fatal(err)
	}

	// The quiet gap closes the epoch; the store must list it while the
	// collector is still up.
	var epochs int
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if src, err := recordstore.Open(store); err == nil {
			epochs = src.Epochs()
			src.Close()
			if epochs > 0 {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	select {
	case err := <-serveDone:
		t.Fatalf("serve exited before the check: %v", err)
	default:
	}
	if epochs != 1 {
		t.Errorf("store lists %d epochs while serve runs, want 1", epochs)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/detect"
	"repro/flow"
	"repro/netflow"
	"repro/pipeline"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
)

// sseEvent is one decoded /events frame.
type sseEvent struct {
	id    string
	event string
	data  string
}

// sseCollect connects to an /events stream and forwards decoded frames
// until the context ends.
func sseCollect(ctx context.Context, url string, out chan<- sseEvent) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	var resp *http.Response
	for {
		resp, err = http.DefaultClient.Do(req)
		if err == nil {
			break
		}
		// The daemon may still be binding its listener; retry briefly.
		select {
		case <-ctx.Done():
			return err
		case <-time.After(50 * time.Millisecond):
		}
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var cur sseEvent
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.data != "" {
				select {
				case out <- cur:
				case <-ctx.Done():
					return nil
				}
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, ": "):
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	return nil
}

// TestServeEventsSSE is the live-ops loop end to end: serve with -detect
// and -http, hold an SSE client on /events, inject a baseline epoch then a
// heavy-change spike, and require the alert to arrive on the stream within
// the epoch that produced it. The /trace/epochs timeline for that epoch
// must show the full stage breakdown.
func TestServeEventsSSE(t *testing.T) {
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

	store := filepath.Join(t.TempDir(), "events.frec")
	var (
		wg       sync.WaitGroup
		serveOut lockedBuf
		serveErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveErr = run([]string{"serve", "-listen", udpAddr, "-store", store,
			"-gap", "200ms", "-for", "5s", "-http", httpAddr,
			"-detect", "-changedelta", "500"}, &serveOut)
	}()
	time.Sleep(300 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	frames := make(chan sseEvent, 64)
	go func() {
		_ = sseCollect(ctx, "http://"+httpAddr+"/events?kind=alert,epoch", frames)
	}()

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

	if err := exp.Export([]flow.Record{{Key: hot, Count: 5100}}, 700); err != nil {
		t.Fatal(err)
	}
	spiked := time.Now()

	// The alert must stream out within the epoch that produced it: the
	// 200ms quiet gap closes the spike epoch, detection runs on the epoch
	// goroutine, and the SSE fan-out is synchronous with Publish.
	var alertEv events.Event
	deadline := time.After(2 * time.Second)
	var epochFrames, alertFrames int
waitAlert:
	for {
		select {
		case f := <-frames:
			switch f.event {
			case "epoch":
				epochFrames++
			case "alert":
				alertFrames++
				if err := json.Unmarshal([]byte(f.data), &alertEv); err != nil {
					t.Fatalf("alert frame not JSON: %v (%q)", err, f.data)
				}
				break waitAlert
			}
		case <-deadline:
			t.Fatalf("no alert frame within 2s of the spike (%d epoch frames seen)", epochFrames)
		}
	}
	if lat := time.Since(spiked); lat > 2*time.Second {
		t.Errorf("alert latency %v", lat)
	}
	if alertEv.Kind != events.KindAlert || alertEv.Vantage != "live" {
		t.Errorf("alert event: %+v", alertEv)
	}
	if alertEv.Seq == 0 {
		t.Error("alert event missing sequence number")
	}

	// The spike epoch's timeline: full stage breakdown with real timings.
	var tr query.TraceResponse
	if err := getJSON("http://"+httpAddr+"/trace/epochs", &tr); err != nil {
		t.Fatalf("/trace/epochs: %v", err)
	}
	var spike *events.EpochTrace
	for i := range tr.Epochs {
		if tr.Epochs[i].Epoch == alertEv.Epoch {
			spike = &tr.Epochs[i]
		}
	}
	if spike == nil {
		t.Fatalf("/trace/epochs missing epoch %d: %+v", alertEv.Epoch, tr.Epochs)
	}
	if spike.Records == 0 || spike.TotalNs <= 0 || spike.Vantage != "live" {
		t.Errorf("spike trace: %+v", spike)
	}
	stages := map[string]int64{}
	for _, st := range spike.Stages {
		stages[st.Name] = st.Ns
	}
	for _, want := range []string{"store_write", "detect"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("trace missing %q stage: %+v", want, spike.Stages)
		}
	}

	// The instrumented mux counted the requests this test already made.
	metrics := getBody(t, "http://"+httpAddr+"/metrics")
	if !strings.Contains(metrics, `http_requests_total{endpoint="/trace/epochs"}`) {
		t.Errorf("/metrics missing endpoint counters:\n%s", metrics)
	}
	if !strings.Contains(metrics, "events_published_total") {
		t.Errorf("/metrics missing event bus counters:\n%s", metrics)
	}

	cancel()
	wg.Wait()
	if serveErr != nil {
		t.Fatalf("serve: %v", serveErr)
	}
}

// failWriter fails every write, driving the record store into its sticky
// error state.
type failWriter struct{}

func (failWriter) Write([]byte) (int, error) {
	return 0, io.ErrClosedPipe
}

// writerStore adapts a stream Writer to the pipeline's Store surface.
type writerStore struct{ *recordstore.Writer }

func (writerStore) Close() error { return nil }

// TestServeHealthDegradedTransition pins the /healthz contract: healthy
// reports "ok", a sticky store-write error flips the status to "degraded"
// with the error surfaced — and the endpoint still answers 200, because a
// degraded collector is still serving.
func TestServeHealthDegradedTransition(t *testing.T) {
	pl := pipeline.New(pipeline.Config{
		Vantage: "live",
		Store:   writerStore{recordstore.NewWriter(failWriter{})}, StorePath: "x.frec",
		Recovery: recordstore.Recovery{Created: true},
		Logger:   slog.New(events.NewLogHandler(io.Discard, nil, "live")),
	})
	health := pl.Health

	mux := http.NewServeMux()
	telemetry.Ops{Registry: telemetry.NewRegistry(), Health: health}.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get := func() (int, telemetry.Health) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h telemetry.Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	code, h := get()
	if code != http.StatusOK || h.Status != "ok" || h.LastError != "" {
		t.Fatalf("healthy: code %d, %+v", code, h)
	}

	// One epoch through the failing writer makes the store error sticky.
	pl.Sink(time.Now(), []flow.Record{{Key: flow.Key{SrcIP: 1}, Count: 1}})

	code, h = get()
	if code != http.StatusOK {
		t.Fatalf("degraded must still answer 200, got %d", code)
	}
	if h.Status != "degraded" || !strings.Contains(h.LastError, "store write") {
		t.Fatalf("degraded: %+v", h)
	}
	if h.Epochs != 1 {
		t.Errorf("epochs = %d", h.Epochs)
	}
}

// TestWebhookStatusLogsFirstFailure: the status logger must report the
// first failed delivery after a healthy streak immediately (via the
// delivery path's nudge), not at the next periodic tick.
func TestWebhookStatusLogsFirstFailure(t *testing.T) {
	recv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer recv.Close()

	s := newWebhookSinkWithRetry(recv.URL, 1, time.Millisecond, time.Millisecond)
	var buf lockedBuf
	logger := slog.New(events.NewLogHandler(&buf, nil, ""))
	// The tick alone would take an hour; only the nudge can surface this.
	s.startLog(logger, time.Hour)

	s.deliver([]detect.Alert{{Kind: detect.KindHeavyChange, Severity: detect.SeverityWarning}})

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(buf.String(), "webhook: deliveries degraded") {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.close(io.Discard)
	out := buf.String()
	if !strings.Contains(out, "webhook: deliveries degraded") {
		t.Fatalf("no immediate degraded status line; log: %q", out)
	}
	if !strings.Contains(out, "failed=1") {
		t.Errorf("status line missing failure count: %q", out)
	}
}

// TestExportTraceTimeline: export with -trace prints one stage timeline
// per retained epoch after the drain summary.
func TestExportTraceTimeline(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()

	var out bytes.Buffer
	err = run([]string{"export", "-profile", "ISP2", "-flows", "400", "-mem", "65536",
		"-epochpkts", "150", "-trace", "4", "-to", sink.LocalAddr().String()}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "trace epoch ") {
		t.Fatalf("no epoch timelines in output:\n%s", s)
	}
	first := s[strings.Index(s, "trace epoch "):]
	line := first[:strings.IndexByte(first, '\n')]
	for _, stage := range []string{"extract=", "flush=", "reset=", "records"} {
		if !strings.Contains(line, stage) {
			t.Errorf("timeline %q missing %q", line, stage)
		}
	}
	// -trace without rotation is rejected like -detect.
	if err := run([]string{"export", "-trace", "2"}, io.Discard); err == nil {
		t.Error("accepted -trace without -epochpkts")
	}
}

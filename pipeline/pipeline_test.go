package pipeline

import (
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/detect"
	"repro/flow"
	"repro/internal/faults"
	"repro/query"
	"repro/recordstore"
	"repro/telemetry/events"
	"repro/topk"
)

func epochRecords(i int) []flow.Record {
	return []flow.Record{
		{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}, Count: uint32(100 + i)},
		{Key: flow.Key{SrcIP: 0x0A000002, DstIP: 0x0A000064, DstPort: 80, Proto: 6}, Count: 10},
	}
}

// quiet discards the pipeline's log lines.
var quiet = slog.New(events.NewLogHandler(nil, nil, ""))

func epochTime(i int) time.Time { return time.Unix(int64(1700000000+60*i), 0) }

func newTracker(t *testing.T) *topk.Tracker {
	t.Helper()
	tr, err := topk.NewTracker(64)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func newDetector(t *testing.T) *detect.Detector {
	t.Helper()
	d, err := detect.NewDetector(detect.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func openFile(t *testing.T, pol recordstore.SyncPolicy) (*recordstore.FileWriter, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "p.frec")
	fw, _, err := recordstore.OpenFile(path, pol)
	if err != nil {
		t.Fatal(err)
	}
	return fw, path
}

// stageNames returns each retained epoch's stage names, oldest first,
// as /trace/epochs serves them.
func stageNames(t *testing.T, tracer *events.Tracer) []string {
	t.Helper()
	srv := httptest.NewServer(query.NewHandler(query.Config{Trace: tracer}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/trace/epochs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr query.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(tr.Epochs))
	for i, et := range tr.Epochs {
		names := make([]string, len(et.Stages))
		for j, st := range et.Stages {
			names[j] = st.Name
		}
		// /trace/epochs is newest first.
		out[len(out)-1-i] = strings.Join(names, ",")
	}
	return out
}

// TestStageOrder: each configuration runs exactly its components'
// stages, in the documented order, as /trace/epochs shows them.
func TestStageOrder(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
		want string
	}{
		{"tracker-only", func(t *testing.T) Config {
			return Config{Tracker: newTracker(t)}
		}, "tracker"},
		{"tracker+store", func(t *testing.T) Config {
			fw, path := openFile(t, recordstore.SyncPolicy{})
			return Config{Tracker: newTracker(t), Store: fw, StorePath: path,
				Recovery: recordstore.Recovery{Created: true}}
		}, "tracker,store_write,store_flush"},
		{"full", func(t *testing.T) Config {
			fw, path := openFile(t, recordstore.SyncPolicy{Mode: recordstore.SyncEachEpoch})
			return Config{Tracker: newTracker(t), Store: fw, StorePath: path,
				Recovery: recordstore.Recovery{Created: true}, Detector: newDetector(t),
				Checkpoint: filepath.Join(t.TempDir(), "d.ckpt"), CheckpointEvery: 1}
		}, "tracker,store_write,store_flush,fsync,detect,checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			cfg.Vantage, cfg.Logger = "v", quiet
			cfg.Tracer = events.NewTracer(0)
			p := New(cfg)
			for i := 0; i < 3; i++ {
				p.Sink(epochTime(i), epochRecords(i))
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			got := stageNames(t, cfg.Tracer)
			if len(got) != 3 {
				t.Fatalf("traced %d epochs, want 3", len(got))
			}
			for i, s := range got {
				if s != tc.want {
					t.Errorf("epoch %d stages %q, want %q", i, s, tc.want)
				}
			}
			if p.Epochs() != 3 {
				t.Errorf("Epochs = %d, want 3", p.Epochs())
			}
		})
	}
}

// checkpointEpochs loads the checkpoint into a fresh detector and
// returns how many evaluated epochs it holds.
func checkpointEpochs(t *testing.T, path string) uint64 {
	t.Helper()
	d := newDetector(t)
	if err := d.LoadCheckpoint(path); err != nil {
		t.Fatalf("load checkpoint: %v", err)
	}
	return d.Epochs()
}

// TestCheckpointCadence: the checkpoint is saved exactly every
// CheckpointEvery evaluated epochs, and Close saves the final one with
// the last epoch included.
func TestCheckpointCadence(t *testing.T) {
	const every, epochs = 3, 7
	ckpt := filepath.Join(t.TempDir(), "d.ckpt")
	tracer := events.NewTracer(0)
	p := New(Config{Detector: newDetector(t), Checkpoint: ckpt, CheckpointEvery: every, Tracer: tracer, Logger: quiet})
	for i := 0; i < epochs; i++ {
		p.Sink(epochTime(i), epochRecords(i))
		if n := uint64(i+1) / every * every; n > 0 {
			if got := checkpointEpochs(t, ckpt); got != n {
				t.Fatalf("after epoch %d checkpoint holds %d epochs, want %d", i, got, n)
			}
		}
	}
	for i, s := range stageNames(t, tracer) {
		want := "detect"
		if (i+1)%every == 0 {
			want = "detect,checkpoint"
		}
		if s != want {
			t.Errorf("epoch %d stages %q, want %q", i, s, want)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := checkpointEpochs(t, ckpt); got != epochs {
		t.Errorf("final checkpoint holds %d epochs, want %d", got, epochs)
	}

	// A restart restores it and continues the epoch count.
	p = New(Config{Detector: newDetector(t), Checkpoint: ckpt, CheckpointEvery: every, Logger: quiet})
	if h := p.Health(); p.Epochs() != epochs || h.Checkpoint == nil || h.Checkpoint.State != "restored" {
		t.Errorf("restart: epochs %d, checkpoint health %+v", p.Epochs(), h.Checkpoint)
	}
}

// writerStore adapts a stream Writer to the Store surface.
type writerStore struct{ *recordstore.Writer }

func (writerStore) Close() error { return nil }

// TestStoreDegradedOnce: a store whose writes start failing raises one
// degraded event and flips Health to degraded; every later epoch is
// dropped and counted, and Close reports the sticky error.
func TestStoreDegradedOnce(t *testing.T) {
	bus := events.NewBus(0)
	store := writerStore{recordstore.NewWriter(faults.NewWriter(io.Discard, 8))}
	p := New(Config{
		Vantage: "v", Store: store, StorePath: "x.frec",
		Recovery: recordstore.Recovery{Created: true},
		Bus:      bus, Logger: slog.New(events.NewLogHandler(nil, bus, "v")),
	})
	if h := p.Health(); h.Status != "ok" {
		t.Fatalf("fresh pipeline health %+v", h)
	}
	const epochs = 5
	for i := 0; i < epochs; i++ {
		p.Sink(epochTime(i), epochRecords(i))
		if h := p.Health(); h.Status != "degraded" {
			t.Fatalf("after epoch %d health %q, want degraded", i, h.Status)
		}
	}
	var degraded int
	for _, ev := range bus.AppendSince(nil, 0, events.Filter{}) {
		if ev.Kind == events.KindDegraded {
			degraded++
		}
	}
	if degraded != 1 {
		t.Errorf("%d degraded events, want exactly 1", degraded)
	}
	// The 8-byte budget fails the first epoch's flush: the other four
	// are dropped.
	h := p.Health()
	if !strings.Contains(h.LastError, "store write (4 later epochs dropped)") {
		t.Errorf("last error %q", h.LastError)
	}
	if h.Epochs != epochs {
		t.Errorf("health epochs %d, want %d", h.Epochs, epochs)
	}
	err := p.Close()
	if !errors.Is(err, faults.ErrInjected) || !strings.Contains(err.Error(), "4 later epochs dropped") {
		t.Errorf("Close = %v", err)
	}
}

// fakeStore records the store calls the pipeline makes.
type fakeStore struct {
	ops      []string
	writeErr error
	// onCompact runs inside Compact, before it is recorded.
	onCompact func()
}

func (s *fakeStore) WriteEpoch(time.Time, []flow.Record) error {
	s.ops = append(s.ops, "write")
	return s.writeErr
}
func (s *fakeStore) Flush() error       { s.ops = append(s.ops, "flush"); return nil }
func (s *fakeStore) Sync() error        { s.ops = append(s.ops, "sync"); return nil }
func (s *fakeStore) Close() error       { s.ops = append(s.ops, "close"); return nil }
func (s *fakeStore) Fsyncs() uint64     { return 0 }
func (s *fakeStore) LastFsyncNs() int64 { return 0 }
func (s *fakeStore) Compact() (recordstore.CompactStats, error) {
	if s.onCompact != nil {
		s.onCompact()
	}
	s.ops = append(s.ops, "compact")
	return recordstore.CompactStats{}, nil
}

// TestCloseOrder: Close saves the final checkpoint first, then compacts,
// syncs and closes the store; a sticky store error skips compaction and
// sync but still closes.
func TestCloseOrder(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "d.ckpt")
	fs := &fakeStore{}
	fs.onCompact = func() {
		if got := checkpointEpochs(t, ckpt); got != 2 {
			t.Errorf("checkpoint at compaction holds %d epochs, want 2", got)
		}
	}
	p := New(Config{Store: fs, Recovery: recordstore.Recovery{Created: true},
		Detector: newDetector(t), Checkpoint: ckpt, CheckpointEvery: 100, Logger: quiet})
	for i := 0; i < 2; i++ {
		p.Sink(epochTime(i), epochRecords(i))
	}
	fs.ops = nil
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(fs.ops, ","); got != "compact,sync,close" {
		t.Errorf("Close ops %q, want compact,sync,close", got)
	}

	failing := &fakeStore{writeErr: errors.New("disk gone")}
	p = New(Config{Store: failing, Recovery: recordstore.Recovery{Created: true}, Logger: quiet})
	p.Sink(epochTime(0), epochRecords(0))
	p.Sink(epochTime(1), epochRecords(1))
	if got := strings.Join(failing.ops, ","); got != "write" {
		t.Errorf("sink ops after a failed write %q, want one write and nothing else", got)
	}
	failing.ops = nil
	err := p.Close()
	if err == nil || !strings.Contains(err.Error(), "disk gone") {
		t.Errorf("Close = %v, want the sticky write error", err)
	}
	if got := strings.Join(failing.ops, ","); got != "close" {
		t.Errorf("Close ops after a store failure %q, want close", got)
	}
}

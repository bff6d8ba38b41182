package adaptive

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/flow"
	"repro/flowmon"
)

// recordingDetector logs every observed epoch, optionally panicking or
// stalling first.
type recordingDetector struct {
	mu       sync.Mutex
	epochs   []int
	counts   []int
	panicAt  func(epoch int) bool
	delay    time.Duration
	observed atomic.Uint64
}

func (d *recordingDetector) ObserveEpoch(epoch int, records []flow.Record) {
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	d.mu.Lock()
	d.epochs = append(d.epochs, epoch)
	d.counts = append(d.counts, len(records))
	d.mu.Unlock()
	d.observed.Add(1)
	if d.panicAt != nil && d.panicAt(epoch) {
		panic("detector exploded")
	}
}

func (d *recordingDetector) snapshot() ([]int, []int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]int(nil), d.epochs...), append([]int(nil), d.counts...)
}

func detRecorder(t testing.TB) flowmon.Recorder {
	t.Helper()
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: 1 << 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestAttachDetectorObservesDrainedEpochs: every drained epoch reaches
// the detector with the same records the flush callback saw, in order.
func TestAttachDetectorObservesDrainedEpochs(t *testing.T) {
	var flushed []int
	m, err := NewDoubleBuffered(detRecorder(t), detRecorder(t), Config{Capacity: 1 << 20},
		func(epoch int, records []flow.Record) {
			flushed = append(flushed, len(records))
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AttachDetector(nil); err == nil {
		t.Fatal("accepted nil detector")
	}
	det := &recordingDetector{}
	if err := m.AttachDetector(det); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 5; e++ {
		for i := 0; i <= e; i++ {
			m.Update(flow.Packet{Key: flow.Key{SrcIP: uint32(100*e + i)}})
		}
		m.Flush()
	}
	m.Close() // drains the worker; flushed and det are complete
	epochs, counts := det.snapshot()
	if want := []int{0, 1, 2, 3, 4}; len(epochs) != len(want) {
		t.Fatalf("detector saw epochs %v", epochs)
	}
	for e, ep := range epochs {
		if ep != e {
			t.Errorf("observation %d was epoch %d", e, ep)
		}
		if counts[e] != flushed[e] {
			t.Errorf("epoch %d: detector saw %d records, flush saw %d", e, counts[e], flushed[e])
		}
		if counts[e] != e+1 {
			t.Errorf("epoch %d: %d records, want %d", e, counts[e], e+1)
		}
	}
	if err := m.DrainErr(); err != nil {
		t.Errorf("clean run reports drain error: %v", err)
	}
}

// TestAttachMultipleObservers: several observers ride the same drain, in
// attach order, each seeing every epoch — and one of them panicking
// never starves the others.
func TestAttachMultipleObservers(t *testing.T) {
	m, err := NewDoubleBuffered(detRecorder(t), detRecorder(t), Config{Capacity: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := &recordingDetector{panicAt: func(epoch int) bool { return epoch == 1 }}
	second := &recordingDetector{}
	if err := m.AttachDetector(first); err != nil {
		t.Fatal(err)
	}
	if err := m.AttachDetector(second); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		m.Update(flow.Packet{Key: flow.Key{SrcIP: uint32(e + 1)}})
		m.Flush()
	}
	m.Close()
	fe, _ := first.snapshot()
	se, _ := second.snapshot()
	want := []int{0, 1, 2}
	for _, got := range [][]int{fe, se} {
		if len(got) != len(want) {
			t.Fatalf("observer saw epochs %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("observer saw epochs %v, want %v", got, want)
			}
		}
	}
	if err := m.DrainErr(); err == nil || !strings.Contains(err.Error(), "detector panicked") {
		t.Errorf("first observer's panic not surfaced: %v", err)
	}
	if got := m.DrainPanics(); got != 1 {
		t.Errorf("DrainPanics() = %d, want 1", got)
	}
}

// TestDetectorWithoutFlushStillObserves: a manager with no flush
// callback still extracts for the detector.
func TestDetectorWithoutFlushStillObserves(t *testing.T) {
	m, err := NewDoubleBuffered(detRecorder(t), detRecorder(t), Config{Capacity: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := &recordingDetector{}
	if err := m.AttachDetector(det); err != nil {
		t.Fatal(err)
	}
	m.Update(flow.Packet{Key: flow.Key{SrcIP: 1}})
	m.Flush()
	m.Close()
	if _, counts := det.snapshot(); len(counts) != 1 || counts[0] != 1 {
		t.Fatalf("detector saw %v", counts)
	}
}

// TestDetectorPanicDoesNotDeadlockRotation: a detector that panics on
// every epoch must not kill the drain worker, wedge a later Flush, or
// drop any epoch — and the recorder must still reset between epochs.
func TestDetectorPanicDoesNotDeadlockRotation(t *testing.T) {
	var flushedCounts []int
	m, err := NewDoubleBuffered(detRecorder(t), detRecorder(t), Config{Capacity: 1 << 20},
		func(epoch int, records []flow.Record) {
			flushedCounts = append(flushedCounts, len(records))
		})
	if err != nil {
		t.Fatal(err)
	}
	det := &recordingDetector{panicAt: func(int) bool { return true }}
	if err := m.AttachDetector(det); err != nil {
		t.Fatal(err)
	}
	const epochs = 20
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := 0; e < epochs; e++ {
			m.Update(flow.Packet{Key: flow.Key{SrcIP: uint32(e)}})
			m.Flush()
		}
		m.Close()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("rotation deadlocked behind a panicking detector")
	}
	if len(flushedCounts) != epochs {
		t.Fatalf("flushed %d epochs, want %d", len(flushedCounts), epochs)
	}
	for e, n := range flushedCounts {
		if n != 1 {
			t.Errorf("epoch %d flushed %d records, want 1 (recorder not reset?)", e, n)
		}
	}
	if got := det.observed.Load(); got != epochs {
		t.Errorf("detector observed %d epochs, want %d", got, epochs)
	}
	if got := m.DrainPanics(); got != epochs {
		t.Errorf("DrainPanics = %d, want %d", got, epochs)
	}
	if err := m.DrainErr(); err == nil || !strings.Contains(err.Error(), "detector panicked") {
		t.Errorf("DrainErr = %v", err)
	}
}

// TestSlowDetectorDoesNotDropEpochs: a detector slower than the epoch
// cadence backpressures rotation (the standby handoff) but every epoch
// is still evaluated exactly once, in order.
func TestSlowDetectorDoesNotDropEpochs(t *testing.T) {
	m, err := NewDoubleBuffered(detRecorder(t), detRecorder(t), Config{Capacity: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := &recordingDetector{delay: 20 * time.Millisecond}
	if err := m.AttachDetector(det); err != nil {
		t.Fatal(err)
	}
	const epochs = 10
	for e := 0; e < epochs; e++ {
		m.Update(flow.Packet{Key: flow.Key{SrcIP: uint32(e)}})
		m.Flush()
	}
	m.Close()
	eps, _ := det.snapshot()
	if len(eps) != epochs {
		t.Fatalf("slow detector saw %d epochs, want %d", len(eps), epochs)
	}
	for i, e := range eps {
		if e != i {
			t.Fatalf("epochs out of order: %v", eps)
		}
	}
	if err := m.DrainErr(); err != nil {
		t.Errorf("slow run reports drain error: %v", err)
	}
}

// TestDetectorStressWithQueries drives rotations from one goroutine
// while others hammer the query-side surfaces and the detector
// intermittently panics — the race detector's view of the drain path.
func TestDetectorStressWithQueries(t *testing.T) {
	m, err := NewDoubleBuffered(detRecorder(t), detRecorder(t), Config{Capacity: 1 << 20},
		func(int, []flow.Record) {})
	if err != nil {
		t.Fatal(err)
	}
	det := &recordingDetector{panicAt: func(e int) bool { return e%3 == 0 }}
	if err := m.AttachDetector(det); err != nil {
		t.Fatal(err)
	}

	const epochs = 50
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = m.DrainErr()
					_ = m.DrainPanics()
				}
			}
		}()
	}
	for e := 0; e < epochs; e++ {
		for i := 0; i < 20; i++ {
			m.Update(flow.Packet{Key: flow.Key{SrcIP: uint32(i)}})
		}
		m.Flush()
	}
	m.Close()
	close(stop)
	wg.Wait()

	if got := det.observed.Load(); got != epochs {
		t.Errorf("detector observed %d epochs, want %d", got, epochs)
	}
	if got, want := m.DrainPanics(), uint64((epochs+2)/3); got != want {
		t.Errorf("DrainPanics = %d, want %d", got, want)
	}
}

// TestSingleBufferDetector: inline mode evaluates the detector on the
// flushing goroutine and recovers its panics there too.
func TestSingleBufferDetector(t *testing.T) {
	m, err := NewManager(detRecorder(t), Config{Capacity: 1 << 20}, nil)
	if err != nil {
		t.Fatal(err)
	}
	det := &recordingDetector{panicAt: func(e int) bool { return e == 1 }}
	if err := m.AttachDetector(det); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		m.Update(flow.Packet{Key: flow.Key{SrcIP: 9}})
		m.Flush() // epoch 1's panic must not escape to this caller
	}
	if eps, _ := det.snapshot(); len(eps) != 3 {
		t.Fatalf("inline detector saw %v", eps)
	}
	if m.DrainPanics() != 1 {
		t.Errorf("DrainPanics = %d, want 1", m.DrainPanics())
	}
}

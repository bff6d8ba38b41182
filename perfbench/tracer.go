package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one epoch share the trace
// id "epoch-<n>" and hang off that epoch's root span; query spans carry
// "query-<client>-<n>".
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
	N      int    `json:"n"` // items the call handled: packets, records, requests
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays no more than a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	roots  map[int]int // epoch -> root span id
	nextID int
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), roots: make(map[int]int)}
}

// epochRoot returns the id of epoch e's root span, reserving it on first
// use; the root's extent is filled in once the epoch is queryable.
func (t *tracer) epochRoot(e int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.roots[e]
	if !ok {
		t.nextID++
		id = t.nextID
		t.roots[e] = id
	}
	return id
}

// add records a span of epoch e and returns its id.
func (t *tracer) add(parent, e int, name string, start, end time.Time, n int) int {
	return t.addTrace(parent, fmt.Sprintf("epoch-%d", e), name, start, end, n)
}

// addTrace records a span of the given trace and returns its id.
func (t *tracer) addTrace(parent int, trace, name string, start, end time.Time, n int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{
		ID: t.nextID, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), N: n,
	})
	return t.nextID
}

// addEpochSpans turns the timestamps the pipeline took around its calls
// on the drain and sink goroutines into spans under each epoch's root.
func (t *tracer) addEpochSpans(eps []epochLog, sinks []sinkLog) {
	for e, l := range eps {
		if e == 0 || l.sent.IsZero() { // epoch 0 is the untraced warm-up
			continue
		}
		root := t.epochRoot(e)
		end := l.sent
		if e < len(sinks) {
			end = sinks[e].done
		}
		t.mu.Lock()
		t.spans = append(t.spans, span{ID: root, Trace: fmt.Sprintf("epoch-%d", e), Name: "epoch",
			Start: l.start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(), N: int(l.pkts)})
		t.mu.Unlock()
		t.add(root, e, "adaptive.drain_wait", l.rotate, l.drainIn, l.records)
		t.add(root, e, "bench.closed_loop_wait", l.drainIn, l.waited, 1)
		t.add(root, e, "netflow.export", l.waited, l.sent, l.records)
		if e >= len(sinks) {
			continue
		}
		s := sinks[e]
		sink := t.add(root, e, "collector.sink", s.enter, s.done, s.records)
		t.add(root, e, "collector.close_lag", l.sent, s.enter, 1)
		t.add(sink, e, "topk.add", s.enter, s.tracked, s.records)
		t.add(sink, e, "recordstore.write", s.tracked, s.stored, s.records)
		t.add(sink, e, "detect.observe", s.stored, s.done, s.records)
	}
}

// byName returns the spans with the given name.
func (t *tracer) byName(name string) []span {
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON line in path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Epoch persistence: the adapter that drains collector epochs into a
// recordstore.Writer, completing the collection pipeline — recorder →
// (NetFlow export) → collector → record store — through the
// allocation-free epoch path.
package collector

import (
	"sync"
	"time"

	"repro/flow"
	"repro/recordstore"
)

// EpochStore adapts any recordstore.EpochWriter — a flat stream Writer,
// a durable FileWriter, or a tiered directory store — into a collector
// Sink. It is safe for concurrent use and sticky on error: a failed
// WriteEpoch may have left a partial epoch on the stream, so writing
// further epochs would corrupt the store — later epochs are counted in
// Dropped and Err reports the first failure (a UDP sink has nobody to
// return errors to mid-stream). Empty epochs (e.g. a quiet-gap window
// that saw only undecodable datagrams) are skipped, not persisted.
type EpochStore struct {
	mu      sync.Mutex
	w       recordstore.EpochWriter
	err     error
	dropped uint64
}

// NewEpochStore wraps w.
func NewEpochStore(w recordstore.EpochWriter) *EpochStore {
	return &EpochStore{w: w}
}

// Sink is the collector.Sink that persists one epoch. The records slice is
// not retained; recordstore.Writer sorts and encodes from its own reused
// scratch, so the whole drain path is allocation-free at steady state.
func (s *EpochStore) Sink(ts time.Time, records []flow.Record) {
	if len(records) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		s.dropped++
		return
	}
	s.err = s.w.WriteEpoch(ts, records)
}

// Flush forwards to the writer, pushing buffered epochs to the underlying
// stream.
func (s *EpochStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Err returns the first write error, nil if all epochs landed.
func (s *EpochStore) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Dropped returns how many non-empty epochs were discarded after the
// first write error.
func (s *EpochStore) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

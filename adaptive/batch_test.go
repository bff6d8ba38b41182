package adaptive

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"repro/flow"
	"repro/flowmon"
	"repro/shard"
	"repro/trace"
)

// epochLog collects the record multiset of every flushed epoch. The flush
// callback runs on the drain worker in double-buffered mode, so it locks.
type epochLog struct {
	mu     sync.Mutex
	epochs [][]flow.Record
}

func (l *epochLog) flush(epoch int, recs []flow.Record) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if epoch != len(l.epochs) {
		panic(fmt.Sprintf("epoch %d flushed after %d epochs", epoch, len(l.epochs)))
	}
	cp := slices.Clone(recs)
	flow.SortByKey(cp)
	l.epochs = append(l.epochs, cp)
}

// TestUpdateBatchMatchesUpdate is the equivalence property of the batched
// path: feeding random-sized batches (empty ones and manual flushes
// included) through UpdateBatch leaves the manager exactly where feeding
// the same packets one at a time through Update leaves its twin — after
// every call — and flushes the same records in every epoch. The configs
// put packet-budget and watermark boundaries inside batches.
func TestUpdateBatchMatchesUpdate(t *testing.T) {
	tr, err := trace.Generate(trace.Campus, 600, 3)
	if err != nil {
		t.Fatal(err)
	}
	pkts := tr.Packets(3)

	mcfg := flowmon.Config{MemoryBytes: 8 << 10, Seed: 7}
	recorders := map[string]func(t *testing.T) flowmon.Recorder{
		"HashFlow": func(t *testing.T) flowmon.Recorder {
			rec, err := flowmon.New(flowmon.AlgorithmHashFlow, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			return rec
		},
		"Sharded": func(t *testing.T) flowmon.Recorder {
			s, err := shard.NewUniform(3, flowmon.AlgorithmHashFlow, mcfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			return s
		},
	}
	// A low HighWatermark against Capacity 4000 makes the watermark fire
	// every few hundred flows; MaxEpochPackets 1<<40 leaves it the only
	// boundary.
	cfgs := []Config{
		{Capacity: 4000, MaxEpochPackets: 1, CheckEvery: 1},
		{Capacity: 4000, MaxEpochPackets: 7, CheckEvery: 4097},
		{Capacity: 4000, MaxEpochPackets: 1000, CheckEvery: 7},
		{Capacity: 4000, MaxEpochPackets: 4097, CheckEvery: 1000},
		{Capacity: 4000, MaxEpochPackets: 4097, CheckEvery: 1000, HighWatermark: 0.1},
		{Capacity: 4000, MaxEpochPackets: 1 << 40, CheckEvery: 7, HighWatermark: 0.05},
		{Capacity: 4000, MaxEpochPackets: 1 << 40, CheckEvery: 1000, HighWatermark: 0.05},
	}

	for name, newRec := range recorders {
		for _, double := range []bool{false, true} {
			for ci, cfg := range cfgs {
				label := fmt.Sprintf("%s/double=%v/max=%d,check=%d,wm=%v",
					name, double, cfg.MaxEpochPackets, cfg.CheckEvery, cfg.HighWatermark)
				t.Run(label, func(t *testing.T) {
					newMgr := func(log *epochLog) *Manager {
						var m *Manager
						var err error
						if double {
							m, err = NewDoubleBuffered(newRec(t), newRec(t), cfg, log.flush)
						} else {
							m, err = NewManager(newRec(t), cfg, log.flush)
						}
						if err != nil {
							t.Fatal(err)
						}
						return m
					}
					var batchLog, refLog epochLog
					bat, ref := newMgr(&batchLog), newMgr(&refLog)

					rng := rand.New(rand.NewPCG(uint64(ci), 11))
					rest, manual := pkts, 0
					for call := 0; len(rest) > 0; call++ {
						n := 0
						if rng.IntN(8) != 0 { // one call in eight is empty
							n = min(1+rng.IntN(5000), len(rest))
						}
						batch := rest[:n]
						rest = rest[n:]
						bat.UpdateBatch(batch)
						for _, p := range batch {
							ref.Update(p)
						}
						if rng.IntN(10) == 0 {
							bat.Flush()
							ref.Flush()
							manual++
						}
						if b, r := bat.Epoch(), ref.Epoch(); b != r {
							t.Fatalf("call %d: Epoch %d, per-packet %d", call, b, r)
						}
						if b, r := bat.EpochPackets(), ref.EpochPackets(); b != r {
							t.Fatalf("call %d: EpochPackets %d, per-packet %d", call, b, r)
						}
						if b, r := bat.TotalPackets(), ref.TotalPackets(); b != r {
							t.Fatalf("call %d: TotalPackets %d, per-packet %d", call, b, r)
						}
						if b, r := bat.Recorder().OpStats(), ref.Recorder().OpStats(); b != r {
							t.Fatalf("call %d: OpStats %+v, per-packet %+v", call, b, r)
						}
					}
					for _, m := range []*Manager{bat, ref} {
						m.Flush()
						m.Close()
					}

					if len(batchLog.epochs) != len(refLog.epochs) {
						t.Fatalf("%d epochs flushed, per-packet %d", len(batchLog.epochs), len(refLog.epochs))
					}
					for e := range refLog.epochs {
						if !slices.Equal(batchLog.epochs[e], refLog.epochs[e]) {
							t.Fatalf("epoch %d: %d records, per-packet %d (or contents differ)",
								e, len(batchLog.epochs[e]), len(refLog.epochs[e]))
						}
					}
					// The watermark-only configs must actually rotate on
					// the watermark, or they prove nothing: count the
					// epochs neither a manual nor the final Flush ended.
					if cfg.MaxEpochPackets > uint64(len(pkts)) {
						if wm := len(refLog.epochs) - manual - 1; wm < 3 {
							t.Fatalf("watermark fired only %d times", wm)
						}
					}
				})
			}
		}
	}
}

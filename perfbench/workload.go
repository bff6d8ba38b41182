package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/experiments"
	"repro/flow"
	"repro/flowmon"
	"repro/recordstore"
	"repro/trace"
)

// spec describes one workload. The program under test only ever sees the
// packets and requests generated from it.
type spec struct {
	name    string
	profile trace.Profile
	flows   int // flows per epoch
	inputs  int // distinct epoch inputs, fed round-robin
	// period is the open-loop epoch period (query); zero runs the
	// pipeline closed-loop as fast as it drains.
	period time.Duration
	// prepop is how many epochs set-up writes into the store before the
	// run, enough that compaction has moved most into cold segments.
	prepop int
	// minEpochs is the least number of timed epochs a run completes, so
	// that the epoch-latency median has ten samples beyond it.
	minEpochs int
	// queryReqs is the size of the closed-loop query phase that follows
	// the pipeline phase on workloads whose writes do not overlap reads.
	queryReqs int
}

var workloads = []spec{
	{
		name: "elephants", profile: trace.Campus, flows: 250_000, inputs: 2,
		minEpochs: 21, queryReqs: 720,
	},
	{
		name: "mice", profile: trace.ISP2, flows: 100_000, inputs: 8,
		minEpochs: 21, queryReqs: 720,
	},
	{
		name: "query", profile: trace.ISP2, flows: 100_000, inputs: 8,
		period: 500 * time.Millisecond, prepop: 40, minEpochs: 21,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range workloads {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// epochInput is one epoch's packets with their exact per-flow counts.
type epochInput struct {
	pkts  []flow.Packet
	truth *flow.Truth
	// probe is the input's largest flow; filtered queries select its
	// source address, so they match at least one stored record.
	probe flow.Key
}

// makeInputs generates the workload's distinct epoch inputs from seed.
func makeInputs(s spec, seed uint64) ([]*epochInput, error) {
	out := make([]*epochInput, s.inputs)
	for j := range out {
		es := mix(seed*0x9e3779b97f4a7c15 + uint64(j))
		tr, err := trace.Generate(s.profile, s.flows, es)
		if err != nil {
			return nil, err
		}
		out[j] = &epochInput{pkts: tr.Packets(es), truth: tr.Truth(), probe: tr.Flows[0].Key}
	}
	return out, nil
}

// hhThreshold is the profile's middle heavy-hitter threshold of the
// paper's sweep.
func hhThreshold(p trace.Profile) uint32 {
	ts := experiments.HHThresholds(p.Name)
	return ts[len(ts)/2]
}

// inputOf maps a stored epoch index to the input it was recorded from:
// pre-populated epochs and live epochs each cycle through the inputs
// from input 0.
func inputOf(idx, prepop, inputs int) int {
	if idx >= prepop {
		idx -= prepop
	}
	return idx % inputs
}

// prepopulate writes s.prepop epochs — what HashFlow records from the
// workload's inputs — into a new tiered store at dir, stamped one period
// apart and ending before now, and compacts it so that all but the hot
// window sits in cold segments.
func prepopulate(dir string, s spec, inputs []*epochInput) error {
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: memoryBytes, Seed: 1})
	if err != nil {
		return err
	}
	recorded := make([][]flow.Record, len(inputs))
	for j, in := range inputs {
		rec.Reset()
		rec.UpdateBatch(in.pkts)
		recorded[j] = rec.Records()
	}
	t, _, err := recordstore.OpenTiered(dir, recordstore.TieredOptions{HotEpochs: hotEpochs})
	if err != nil {
		return err
	}
	base := time.Now().Add(-time.Duration(s.prepop+1) * s.period)
	for i := 0; i < s.prepop; i++ {
		ts := base.Add(time.Duration(i) * s.period)
		if err := t.WriteEpoch(ts, recorded[i%len(inputs)]); err != nil {
			t.Close()
			return err
		}
	}
	if _, err := t.Compact(); err != nil {
		t.Close()
		return err
	}
	return t.Close()
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

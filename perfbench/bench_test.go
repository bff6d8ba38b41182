package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"repro/trace"
)

// Small versions of the three workload shapes, fast enough for a test.
var (
	smallClosed = spec{name: "small-mice", profile: trace.ISP2, flows: 20_000, inputs: 3, minEpochs: 21, queryReqs: 40}
	smallQuery  = spec{name: "small-query", profile: trace.ISP2, flows: 20_000, inputs: 3,
		period: 40 * time.Millisecond, prepop: 20, minEpochs: 21}
	smallElephants = spec{name: "small-elephants", profile: trace.Campus, flows: 20_000, inputs: 2, minEpochs: 21, queryReqs: 40}
)

func testLog(t *testing.T) io.Writer {
	if testing.Verbose() {
		return os.Stderr
	}
	return io.Discard
}

// TestRunCorrect runs each workload shape end to end, untraced and
// traced, and requires every output check to pass and exactly the
// metrics BENCHMARK.json declares, with their units, to be reported.
func TestRunCorrect(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, s := range []spec{smallClosed, smallQuery, smallElephants} {
		for _, traced := range []bool{false, true} {
			o := options{seed: 7, seconds: 0.2, trace: traced, out: t.TempDir()}
			res, err := run(o, s, testLog(t))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := decl.EndToEnd
			if traced {
				want = decl.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", s.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", s.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestAccuracyDeterministic requires the accuracy metrics to be
// bit-identical across two runs with the same seed, however many epochs
// each run managed, and the packets fed to equal the truth's packets.
func TestAccuracyDeterministic(t *testing.T) {
	var got [2][3]float64
	for i := range got {
		fsc, are, f1, fed, truth := runOnce(t, smallClosed, 11, 0.1*float64(i+1))
		if fed != truth {
			t.Errorf("run %d: fed %d packets, per-epoch truth holds %d", i, fed, truth)
		}
		got[i] = [3]float64{fsc, are, f1}
	}
	for j, name := range []string{"fsc", "size_are", "hh_f1"} {
		if math.Float64bits(got[0][j]) != math.Float64bits(got[1][j]) {
			t.Errorf("%s differs across runs with one seed: %v vs %v", name, got[0][j], got[1][j])
		}
	}
}

// runOnce sets up, measures and checks one untraced run.
func runOnce(t *testing.T, s spec, seed uint64, seconds float64) (fsc, are, f1 float64, fed, truth uint64) {
	t.Helper()
	inputs, err := makeInputs(s, seed)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPipeline(t.TempDir(), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warmUp(p, inputs); err != nil {
		t.Fatal(err)
	}
	ph, err := measure(p, s, inputs, options{seed: seed, seconds: seconds}, nil, testLog(t))
	if cerr := p.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	var c checks
	if err := verify(&c, p, ph.samples); err != nil {
		t.Fatal(err)
	}
	if fsc, are, f1, err = accuracy(&c, p, inputs, hhThreshold(s.profile)); err != nil {
		t.Fatal(err)
	}
	if c.failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", c.failed, c.attempted, c.notes)
	}
	eps, _, _ := p.snapshot()
	for _, l := range eps {
		truth += inputs[l.input].truth.Packets()
	}
	fed = p.mgr.TotalPackets()
	if timed := fed - eps[0].pkts; timed != ph.pkts { // epoch 0 is the warm-up
		t.Errorf("manager recorded %d timed packets, the phase fed %d", timed, ph.pkts)
	}
	return fsc, are, f1, fed, truth
}

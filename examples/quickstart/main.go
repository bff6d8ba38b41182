// Quickstart: generate a synthetic campus trace, collect flow records with
// HashFlow in 256 KB of memory, and print what it captured.
package main

import (
	"fmt"
	"os"
	"slices"

	"repro/flow"
	"repro/flowmon"
	"repro/metrics"
	"repro/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// 20K flows from the campus profile: mean 15 packets per flow, heavy
	// elephant tail.
	tr, err := trace.Generate(trace.Campus, 20000, 42)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %d flows, %d packets\n", tr.FlowCount(), tr.PacketCount())

	// A HashFlow recorder with the paper's defaults: 3 pipelined sub-tables
	// (alpha = 0.7) plus an equal-size ancillary table, in 256 KB.
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{
		MemoryBytes: 256 << 10,
		Seed:        1,
	})
	if err != nil {
		return err
	}

	// Feed the packet stream.
	stream := tr.Stream(42)
	for {
		p, ok := stream.Next()
		if !ok {
			break
		}
		rec.Update(p)
	}

	// Report.
	truth := tr.Truth()
	records := rec.Records()
	fmt.Printf("collected %d flow records (coverage %.1f%%)\n",
		len(records), 100*metrics.FSC(records, truth))
	fmt.Printf("size estimation ARE: %.3f\n", metrics.SizeARE(rec.EstimateSize, truth))
	fmt.Printf("cardinality estimate: %.0f (true %d)\n", rec.EstimateCardinality(), truth.Flows())

	slices.SortFunc(records, flow.CompareByCount)
	fmt.Println("top flows:")
	for i, r := range records {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-45s %6d pkts (true %d)\n", r.Key, r.Count, truth.Count(r.Key))
	}
	return nil
}

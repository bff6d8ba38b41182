// Command perfbench is the repository's end-to-end benchmark. It drives
// the production collection path over loopback — trace packets into a
// double-buffered adaptive.Manager over 1 MiB HashFlow, NetFlow v5 export,
// collector.Start, a sink composed as flowcollect serve composes it
// (live top-k, tiered store, detection), and the /v1 query API over
// HTTP — measures it, checks its outputs, and prints one JSON result as
// the last line of standard output. See README.md for the workloads and
// metrics. Run it through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload mice --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	o := options{out: filepath.Join(".bench_build", "perfbench.d")} // stores and span files
	workload := fs.String("workload", "", "workload to run: elephants, mice or query")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed phase measures")
	trace := fs.Int("trace", 0, "1 adds a traced run and reports per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	s, err := lookupSpec(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o, s, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := report(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints every metric by name and unit, then the JSON result.
func report(w io.Writer, res result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if _, err := fmt.Fprintf(w, "%-34s %14.6g %s\n", n, m.Value, m.Unit); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "attempted %d, failed %d\n", res.Attempted, res.Failed); err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

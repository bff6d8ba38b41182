// Command benchdiff is the CI benchmark regression gate: it compares a
// freshly measured flowbench JSON report against the committed
// BENCH_*.json baseline and fails when a recognized metric regressed
// past the tolerance.
//
//	benchdiff [-tol 1.5] [-qualtol 0.05] BENCH_detect.json fresh/BENCH_detect.json
//
// Two metric classes are checked, recognized by JSON key:
//
//   - performance (ns_per_*, us_per_read, *_stall_us, p50/p95/max_us lower-better;
//     mpps, mrec_per_s higher-better), gated with -tol: a fresh value
//     may be up to (1+tol)x worse than the baseline. The default 1.5
//     (2.5x) deliberately catches order-of-magnitude regressions rather
//     than microbenchmark noise — CI runners and the machines baselines
//     were recorded on differ, and per-unit metrics (per packet, per
//     record) are the only thing comparable across them.
//   - quality (*_precision, *_recall keys, higher-better), gated with
//     the much tighter -qualtol: accuracy is hardware-independent, so a
//     fresh run may not fall more than qualtol (relative) below the
//     committed value.
//
// Counter-like keys (epochs, packets, shards, ...) are ignored: quick
// runs shrink scale without changing per-unit cost. Structural drift —
// a metric present in the baseline but missing from the fresh report,
// or row arrays of different lengths — also fails, pointing at a stale
// baseline that needs regenerating with `flowbench -json`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// lowerBetter / higherBetter / quality classify metric keys by suffix.
var (
	lowerBetter = []string{
		"ns_per_pkt", "ns_per_record", "ns_per_epoch", "ns_per_access",
		"ns_per_op", "us_per_read",
		"med_stall_us", "max_stall_us", "p50_us", "p95_us", "max_us",
	}
	higherBetter = []string{"mpps", "mrec_per_s", "_ratio"}
	quality      = []string{"_precision", "_recall", "precision", "recall"}
)

// metricClass reports how the key's metric is gated: +1 higher-better,
// -1 lower-better, 0 not a gated perf metric. qual marks the quality
// class (higher-better, tight tolerance).
func metricClass(key string) (dir int, qual bool) {
	for _, s := range quality {
		if strings.HasSuffix(key, s) {
			return +1, true
		}
	}
	for _, s := range lowerBetter {
		if strings.HasSuffix(key, s) {
			return -1, false
		}
	}
	for _, s := range higherBetter {
		if strings.HasSuffix(key, s) {
			return +1, false
		}
	}
	return 0, false
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	tol := fs.Float64("tol", 1.5, "relative tolerance for performance metrics (new may be (1+tol)x worse)")
	qualTol := fs.Float64("qualtol", 0.05, "relative tolerance for precision/recall metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: benchdiff [-tol x] [-qualtol x] <baseline.json> <fresh.json>")
	}
	base, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	fresh, err := load(fs.Arg(1))
	if err != nil {
		return err
	}

	d := differ{tol: *tol, qualTol: *qualTol}
	d.walk("", base, fresh)
	for _, v := range d.violations {
		if _, err := fmt.Fprintln(w, "REGRESSION:", v); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "benchdiff: %d metrics checked against %s, %d regressions\n",
		d.checked, fs.Arg(0), len(d.violations)); err != nil {
		return err
	}
	if len(d.violations) > 0 {
		return fmt.Errorf("%d metrics regressed past tolerance", len(d.violations))
	}
	if d.checked == 0 {
		return fmt.Errorf("no recognized metrics in %s — wrong file?", fs.Arg(0))
	}
	return nil
}

func load(path string) (any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v any
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

type differ struct {
	tol        float64
	qualTol    float64
	checked    int
	violations []string
}

// walk compares base and fresh structurally, gating recognized metric
// leaves.
func (d *differ) walk(path string, base, fresh any) {
	switch b := base.(type) {
	case map[string]any:
		f, ok := fresh.(map[string]any)
		if !ok {
			d.violations = append(d.violations, fmt.Sprintf("%s: fresh report is not an object", path))
			return
		}
		for k, bv := range b {
			p := k
			if path != "" {
				p = path + "." + k
			}
			fv, present := f[k]
			if !present {
				if dir, _ := metricClass(k); dir != 0 {
					d.violations = append(d.violations,
						fmt.Sprintf("%s: metric missing from fresh report (stale baseline? regenerate with flowbench -json)", p))
				}
				continue
			}
			d.walk(p, bv, fv)
		}
	case []any:
		f, ok := fresh.([]any)
		if !ok || len(f) != len(b) {
			d.violations = append(d.violations,
				fmt.Sprintf("%s: row count changed (baseline %d) — regenerate the baseline", path, len(b)))
			return
		}
		for i := range b {
			d.walk(fmt.Sprintf("%s[%d]", path, i), b[i], f[i])
		}
	case float64:
		fv, ok := fresh.(float64)
		if !ok {
			d.violations = append(d.violations, fmt.Sprintf("%s: fresh value is not a number", path))
			return
		}
		key := path
		if i := strings.LastIndexByte(path, '.'); i >= 0 {
			key = path[i+1:]
		}
		dir, qual := metricClass(key)
		if dir == 0 || b == 0 {
			// A zero baseline makes any relative gate degenerate; skip it.
			return
		}
		d.checked++
		tol := d.tol
		if qual {
			tol = d.qualTol
		}
		switch {
		case dir < 0 && fv > b*(1+tol):
			d.violations = append(d.violations,
				fmt.Sprintf("%s: %.3f -> %.3f (limit %.3f, +%.0f%% tolerance)", path, b, fv, b*(1+tol), tol*100))
		case dir > 0 && fv < b/(1+tol):
			d.violations = append(d.violations,
				fmt.Sprintf("%s: %.3f -> %.3f (limit %.3f, -%.0f%% tolerance)", path, b, fv, b/(1+tol), tol/(1+tol)*100))
		}
	}
}

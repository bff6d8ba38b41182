package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// write drops a JSON fixture into the test dir and returns its path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseline = `{
  "cost": [
    {"stages": "change", "epochs": 64, "ns_per_epoch": 400000, "ns_per_record": 200.0},
    {"stages": "full", "epochs": 64, "ns_per_epoch": 900000, "ns_per_record": 450.0}
  ],
  "rotation": [
    {"detector": true, "packets": 1280000, "ns_per_pkt": 300.0, "med_stall_us": 2000.0, "max_stall_us": 3000.0}
  ],
  "accuracy": {"epochs": 60, "change_precision": 1.0, "change_recall": 1.0, "ramp_recall": 1.0},
  "netwide": {"vantages": 3, "precision": 1.0, "recall": 1.0}
}`

func runDiff(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var sb strings.Builder
	err := run(args, &sb)
	return sb.String(), err
}

// TestIdenticalReportsPass: a fresh report equal to the baseline passes
// and actually checks metrics.
func TestIdenticalReportsPass(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseline)
	fresh := write(t, dir, "new.json", baseline)
	out, err := runDiff(t, old, fresh)
	if err != nil {
		t.Fatalf("identical reports failed: %v\n%s", err, out)
	}
	if !strings.Contains(out, "0 regressions") || strings.Contains(out, " 0 metrics checked") {
		t.Errorf("summary: %s", out)
	}
}

// TestWithinTolerancePasses: moderately worse numbers inside the slack
// pass; counters and unknown keys never gate.
func TestWithinTolerancePasses(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseline)
	fresh := write(t, dir, "new.json", strings.NewReplacer(
		`"ns_per_epoch": 400000`, `"ns_per_epoch": 800000`, // 2x < 2.5x limit
		`"epochs": 64`, `"epochs": 24`, // counter, ignored
	).Replace(baseline))
	if out, err := runDiff(t, "-tol", "1.5", old, fresh); err != nil {
		t.Fatalf("within-tolerance run failed: %v\n%s", err, out)
	}
}

// TestPerfRegressionFails: a lower-better metric past (1+tol)x fails
// and names the path.
func TestPerfRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseline)
	fresh := write(t, dir, "new.json", strings.Replace(baseline,
		`"ns_per_pkt": 300.0`, `"ns_per_pkt": 900.0`, 1)) // 3x > 2.5x
	out, err := runDiff(t, "-tol", "1.5", old, fresh)
	if err == nil {
		t.Fatalf("3x ns_per_pkt regression passed:\n%s", out)
	}
	if !strings.Contains(out, "rotation[0].ns_per_pkt") {
		t.Errorf("violation does not name the metric: %s", out)
	}
}

// TestPointReadRegressionFails: us_per_read (BENCH_store.json's cold
// point-read rows) is a gated lower-better metric.
func TestPointReadRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", `{"point_read": [{"read": "src", "epochs": 32, "us_per_read": 800.0}]}`)
	fresh := write(t, dir, "new.json", `{"point_read": [{"read": "src", "epochs": 32, "us_per_read": 2400.0}]}`)
	out, err := runDiff(t, "-tol", "1.5", old, fresh)
	if err == nil {
		t.Fatalf("3x us_per_read regression passed:\n%s", out)
	}
	if !strings.Contains(out, "point_read[0].us_per_read") {
		t.Errorf("violation does not name the metric: %s", out)
	}
}

// TestQualityRegressionFails: precision/recall gate far tighter than
// perf — a drop to 0.8 fails even though it is nowhere near 2.5x.
func TestQualityRegressionFails(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseline)
	fresh := write(t, dir, "new.json", strings.Replace(baseline,
		`"ramp_recall": 1.0`, `"ramp_recall": 0.8`, 1))
	out, err := runDiff(t, old, fresh)
	if err == nil {
		t.Fatalf("recall drop to 0.8 passed:\n%s", out)
	}
	if !strings.Contains(out, "accuracy.ramp_recall") {
		t.Errorf("violation does not name the metric: %s", out)
	}
	// Within the quality tolerance: fine.
	fresh2 := write(t, dir, "new2.json", strings.Replace(baseline,
		`"ramp_recall": 1.0`, `"ramp_recall": 0.97`, 1))
	if out, err := runDiff(t, old, fresh2); err != nil {
		t.Fatalf("0.97 recall failed: %v\n%s", err, out)
	}
}

// TestStructuralDriftFails: missing metrics and changed row counts point
// at a stale baseline.
func TestStructuralDriftFails(t *testing.T) {
	dir := t.TempDir()
	old := write(t, dir, "old.json", baseline)
	missing := write(t, dir, "missing.json", strings.Replace(baseline,
		`"ns_per_pkt": 300.0, `, "", 1))
	if out, err := runDiff(t, old, missing); err == nil {
		t.Fatalf("missing metric passed:\n%s", out)
	}
	shrunk := write(t, dir, "shrunk.json", strings.Replace(baseline,
		`{"stages": "change", "epochs": 64, "ns_per_epoch": 400000, "ns_per_record": 200.0},`, "", 1))
	out, err := runDiff(t, old, shrunk)
	if err == nil {
		t.Fatalf("row-count drift passed:\n%s", out)
	}
	if !strings.Contains(out, "row count changed") {
		t.Errorf("drift message: %s", out)
	}
}

// TestBadInvocation: wrong arity and a metric-free baseline error out.
func TestBadInvocation(t *testing.T) {
	if _, err := runDiff(t, "only-one.json"); err == nil {
		t.Error("single argument accepted")
	}
	dir := t.TempDir()
	empty := write(t, dir, "empty.json", `{"note": "nothing measurable"}`)
	if _, err := runDiff(t, empty, empty); err == nil {
		t.Error("metric-free baseline accepted")
	}
}

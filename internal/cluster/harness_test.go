package cluster

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
)

// smokeOptions is a scaled-down kill/restart run: small enough for the
// unit-test suite, large enough that every fault path engages.
func smokeOptions(t *testing.T) HarnessOptions {
	return HarnessOptions{
		Nodes:        []string{"n1", "n2", "n3"},
		Requests:     90,
		Seed:         1,
		Unique:       8,
		ExactN:       8,
		KillAfter:    30,
		RestartAfter: 60,
		StoreDir:     t.TempDir(),
	}
}

func TestHarnessKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	o := smokeOptions(t)
	rep, err := RunHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}
	if rep.Killed != "n2" {
		t.Fatalf("killed %q, want the middle sorted member n2", rep.Killed)
	}
	if !rep.Restarted {
		t.Fatal("restart never happened")
	}
	if rep.Failovers == 0 {
		t.Fatal("no client failover despite a dead node in the dispatch rotation")
	}
	if rep.Convergence.Paths == 0 || rep.Convergence.Recomputed != 0 {
		t.Fatalf("convergence: %+v", rep.Convergence)
	}
	if rep.StoreEntries == 0 {
		t.Fatal("shared store is empty after the run")
	}
}

func TestHarnessNoFaultRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness")
	}
	o := HarnessOptions{
		Requests:  40,
		Unique:    6,
		ExactN:    7,
		KillAfter: -1,
		StoreDir:  t.TempDir(),
	}
	rep, err := RunHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed != "" || rep.Restarted {
		t.Fatalf("fault ran despite KillAfter=-1: %+v", rep)
	}
	if rep.Mismatches != 0 {
		t.Fatalf("%d mismatches on a healthy cluster", rep.Mismatches)
	}
	if rep.Failovers != 0 {
		t.Fatalf("%d failovers on a healthy cluster", rep.Failovers)
	}
	if rep.Totals().Degraded != 0 {
		t.Fatal("degraded responses on a healthy cluster")
	}
}

// TestCheckTrajectoryRejectsBadFiles pins that BenchDoc records a bad
// run as a BENCH_cluster.json that bench.Check rejects once read back
// from disk, while a good fault run round-trips and passes.
func TestCheckTrajectoryRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	o := HarnessOptions{Nodes: []string{"n1", "n2", "n3"}, Requests: 10, KillAfter: 3, RestartAfter: -1}
	good := func() *HarnessReport {
		return &HarnessReport{Requests: 10, Killed: "n2", Nodes: []NodeCounters{
			{Name: "n1", OwnedLocal: 4, Forwards: 2, Hedges: 1, Retries: 1, Degraded: 1},
			{Name: "n2", OwnedLocal: 3},
			{Name: "n3", OwnedLocal: 3},
		}}
	}
	check := func(name string, d *bench.Doc) error {
		path := filepath.Join(dir, name)
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := bench.Read(path)
		if err != nil {
			t.Fatal(err)
		}
		return bench.Check(back)
	}
	if err := check("good.json", BenchDoc(o, good())); err != nil {
		t.Fatal(err)
	}
	d := BenchDoc(o, good())
	d.Schema = "capest/bench-cluster/v1"
	if err := check("schema.json", d); err == nil {
		t.Fatal("wrong schema accepted")
	}
	rep := good()
	rep.Mismatches = 3
	if err := check("mismatch.json", BenchDoc(o, rep)); err == nil {
		t.Fatal("mismatches accepted")
	}
	d = BenchDoc(o, good())
	d.Passed = false
	if err := check("failed.json", d); err == nil {
		t.Fatal("failed run accepted")
	}
	rep = good()
	rep.Nodes[0].Degraded = 0
	if err := check("idle.json", BenchDoc(o, rep)); err == nil {
		t.Fatal("idle fault machinery accepted")
	}
	single := HarnessOptions{Nodes: []string{"n1"}, Requests: 10, KillAfter: -1}
	rep = &HarnessReport{Requests: 10, Nodes: []NodeCounters{{Name: "n1", OwnedLocal: 10}}}
	if err := check("single.json", BenchDoc(single, rep)); err == nil {
		t.Fatal("single-node run accepted")
	}
	if _, err := bench.Read(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestHarnessTracedKillRestartRun is the trace-reconciliation gate:
// a kill/restart run with tracing on must produce spans that satisfy
// every chain invariant and reconcile exactly with the routing
// counters — across both incarnations of the killed node — and the
// written trace directory must round-trip to the same verdict through
// the capstat file-ingestion path.
func TestHarnessTracedKillRestartRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node fault harness")
	}
	o := smokeOptions(t)
	o.TraceDir = t.TempDir() // implies Trace
	rep, err := RunHarness(o)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rep.Format(&buf)
	t.Logf("traced harness report:\n%s", buf.String())
	if err := rep.Assert(); err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil || rep.Trace.Spans == 0 {
		t.Fatal("traced run produced no trace verdict")
	}
	if len(rep.Trace.Violations) != 0 {
		t.Fatalf("trace violations: %v", rep.Trace.Violations)
	}
	if len(rep.TraceMismatches) != 0 {
		t.Fatalf("trace/counter mismatches: %v", rep.TraceMismatches)
	}
	// The killed-and-restarted member emitted spans too (two
	// incarnations merged under one member name).
	if len(rep.Trace.PerNode[rep.Killed]) == 0 {
		t.Fatalf("no spans from the killed member %s", rep.Killed)
	}

	// The on-disk trace directory feeds the capstat CLI path and must
	// reach the same verdict.
	var paths []string
	for _, name := range o.Nodes {
		paths = append(paths, filepath.Join(o.TraceDir, name+".jsonl"))
	}
	spans, err := obs.ReadReqSpanFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != rep.Trace.Spans {
		t.Fatalf("trace dir holds %d spans, report has %d", len(spans), rep.Trace.Spans)
	}
	raw, err := os.ReadFile(filepath.Join(o.TraceDir, "counters.json"))
	if err != nil {
		t.Fatal(err)
	}
	var counters map[string]NodeCounters
	if err := json.Unmarshal(raw, &counters); err != nil {
		t.Fatal(err)
	}
	check := AnalyzeSpans(spans)
	if !check.Healthy(counters) {
		t.Fatalf("trace dir does not reconcile:\n%s", check.Format(counters, 3))
	}
}

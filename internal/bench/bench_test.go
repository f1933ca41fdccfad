package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// floors are the scale each committed BENCH file must show. They are
// properties of the committed artifact, not outcome conditions of a
// run, so they live here and not among the producers' gates: a smoke
// run is a valid document, and a committed file must also be big.
var floors = map[string][]Gate{
	"kernels":  kernelFloors(),
	"cluster":  {{"nodes", ">=", 2}, {"requests", ">", 0}},
	"sessions": {{"sessions", ">=", 100000}},
	"alerts":   {{"rules", ">=", 100}, {"series", ">=", 10}, {"ticks", ">=", 100}},
}

// kernelFloors requires every kernel pair kernelbench measures.
func kernelFloors() []Gate {
	var gs []Gate
	for _, p := range []string{"ba_capacity", "seq_decode", "drift_decode", "channel_transmit", "binary_transmit"} {
		gs = append(gs, Gate{p + ".ns_per_op", ">", 0}, Gate{p + "_reference.ns_per_op", ">", 0}, Gate{p + ".speedup", ">", 0})
	}
	return gs
}

// checkCommitted is the whole validation of a committed file: it must
// read, pass Check, and meet its kind's floors.
func checkCommitted(path string) error {
	d, err := Read(path)
	if err != nil {
		return err
	}
	if err := Check(d); err != nil {
		return err
	}
	for _, g := range floors[d.Kind] {
		if err := d.eval(g); err != nil {
			return err
		}
	}
	return nil
}

// TestCommittedBenchFiles validates every BENCH_*.json at the repo
// root: one file per kind, named after it, each passing Check and its
// floors.
func TestCommittedBenchFiles(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, path := range paths {
		if err := checkCommitted(path); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		d, _ := Read(path)
		if want := "BENCH_" + d.Kind + ".json"; filepath.Base(path) != want {
			t.Errorf("%s holds a %q document, want it in %s", path, d.Kind, want)
		}
		kinds = append(kinds, d.Kind)
	}
	slices.Sort(kinds)
	want := slices.Clone(Kinds)
	slices.Sort(want)
	if !slices.Equal(kinds, want) {
		t.Errorf("committed kinds %v, want %v", kinds, want)
	}
}

// goodDoc returns a passing document of each kind, shaped like its
// producer's output.
func goodDoc(kind string) *Doc {
	d := New(kind, map[string]any{"seed": 1})
	switch kind {
	case "kernels":
		for _, g := range kernelFloors() {
			d.Add(g.Metric, 1, "")
			d.Require(g.Metric, ">", 0)
		}
	case "cluster":
		d.Add("nodes", 3, "count")
		d.Add("requests", 10, "count")
		d.Add("mismatches", 0, "count")
		d.Add("total.hedges", 1, "count")
		d.Add("total.retries", 1, "count")
		d.Add("total.degraded", 1, "count")
		d.Require("mismatches", "==", 0)
		d.Require("total.hedges", ">", 0)
		d.Require("total.retries", ">", 0)
		d.Require("total.degraded", ">", 0)
	case "sessions":
		d.Add("sessions", 100000, "count")
		d.Add("drift_sessions", 10000, "count")
		d.Add("events_total", 1e8, "count")
		d.Add("missed", 6, "count")
		d.Require("events_total", ">", 0)
		d.Require("drift_sessions", ">", 0)
		d.Require("missed", "<=", 10)
	case "alerts":
		d.Add("rules", 400, "count")
		d.Add("series", 24, "count")
		d.Add("ticks", 600, "count")
		d.Add("transitions", 10000, "count")
		d.Require("transitions", ">", 0)
	}
	d.Passed = true
	return d
}

// set overwrites a metric of the document.
func set(d *Doc, name string, v float64) {
	for i := range d.Metrics {
		if d.Metrics[i].Name == name {
			d.Metrics[i].Value = v
		}
	}
}

// TestCheckRejects is every rejection the envelope makes, whether by
// Check, a producer's gate, a floor, or the reader. Each case edits a
// passing document and writes it to disk; the file must then fail the
// same validation the committed files go through.
func TestCheckRejects(t *testing.T) {
	dir := t.TempDir()
	for _, kind := range Kinds {
		path := filepath.Join(dir, kind+".json")
		if err := Write(path, goodDoc(kind)); err != nil {
			t.Fatalf("good %s document: %v", kind, err)
		}
		if err := checkCommitted(path); err != nil {
			t.Fatalf("good %s document: %v", kind, err)
		}
	}

	cases := []struct {
		name string
		kind string
		want string       // in the error
		edit func(d *Doc) // nil: no file is written
	}{
		{"bad schema", "cluster", "schema", func(d *Doc) { d.Schema = "capest/bench-cluster/v1" }},
		{"unknown kind", "cluster", "unknown kind", func(d *Doc) { d.Kind = "e2e" }},
		{"no gates", "alerts", "no gates", func(d *Doc) { d.Gates = nil }},
		{"gate on a missing metric", "alerts", "missing metric", func(d *Doc) { d.Require("ghost", ">", 0) }},
		{"unknown gate op", "alerts", "unknown op", func(d *Doc) { d.Gates[0].Op = "!=" }},
		{"mismatch", "cluster", "mismatches == 0 fails", func(d *Doc) { set(d, "mismatches", 3) }},
		{"failed run", "cluster", "failed run", func(d *Doc) { d.Passed = false }},
		{"idle fault machinery", "cluster", "total.degraded > 0 fails", func(d *Doc) { set(d, "total.degraded", 0) }},
		{"single node", "cluster", "nodes >= 2 fails", func(d *Doc) { set(d, "nodes", 1) }},
		{"no requests", "cluster", "requests > 0 fails", func(d *Doc) { set(d, "requests", 0) }},
		{"missing file", "cluster", "no such file", nil},
		{"below the session floor", "sessions", "sessions >= 100000 fails", func(d *Doc) { set(d, "sessions", 120) }},
		{"missed drift over budget", "sessions", "missed <= 10 fails", func(d *Doc) { set(d, "missed", 11) }},
		{"no drift sessions", "sessions", "drift_sessions > 0 fails", func(d *Doc) { set(d, "drift_sessions", 0) }},
		{"too-small alert workload", "alerts", "rules >= 100 fails", func(d *Doc) { set(d, "rules", 50) }},
		{"rules never moved", "alerts", "transitions > 0 fails", func(d *Doc) { set(d, "transitions", 0) }},
		{"kernel pair missing", "kernels", "ba_capacity.ns_per_op > 0 names a missing metric",
			func(d *Doc) { d.Metrics, d.Gates = d.Metrics[3:], d.Gates[3:] }},
		{"degenerate speedup", "kernels", "seq_decode.speedup > 0 fails", func(d *Doc) { set(d, "seq_decode.speedup", 0) }},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".json")
		if c.edit != nil {
			d := goodDoc(c.kind)
			c.edit(d)
			raw, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := checkCommitted(path); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

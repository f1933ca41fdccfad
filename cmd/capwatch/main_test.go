package main

import (
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/capserver"
	"repro/internal/cluster"
	"repro/internal/obs"
)

// TestWatchOnce renders one page against a real single-member cluster
// and checks the deterministic parts of the layout.
func TestWatchOnce(t *testing.T) {
	f, err := cluster.NewFleet([]string{"solo"}, func(name string, _ int, mem cluster.Membership) (*capserver.Server, *cluster.Node, error) {
		reg := obs.NewRegistry()
		srv := capserver.New(capserver.Config{Workers: 2, QueueDepth: 16, Metrics: reg, SessionSweep: -1})
		node, err := cluster.NewNode(srv, cluster.Config{Membership: mem, Self: name, Metrics: cluster.NewMetrics(reg)})
		return srv, node, err
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base := f.URL("solo")

	if resp, err := http.Get(base + "/v1/bounds?n=4&pd=0.2&pi=0.1"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	f.Server("solo").TickHealth()

	var b strings.Builder
	if err := run([]string{"-target", base, "-once"}, &b); err != nil {
		t.Fatal(err)
	}
	page := b.String()
	for _, want := range []string{
		"verdict=ok firing=0 pending=0",
		"solo",
		"alerts by rule:",
		"queue-rejects",
		"degraded-routing",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("page missing %q:\n%s", want, page)
		}
	}
	// A second render of a quiesced cluster is byte-identical.
	var b2 strings.Builder
	if err := run([]string{"-target", base, "-once"}, &b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != page {
		t.Errorf("quiesced pages differ:\n--- a\n%s\n--- b\n%s", page, b2.String())
	}
}

// TestBenchCheckRoundTrip writes a bench document and validates the
// file with bench.Check.
func TestBenchCheckRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_alerts.json")
	var b strings.Builder
	if err := run([]string{"-mode", "bench", "-rules", "120", "-series", "12", "-ticks", "150", "-bench-out", path}, &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "wrote "+path) {
		t.Fatalf("bench output: %s", b.String())
	}
	d, err := bench.Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := bench.Check(d); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-mode", "check", path}, io.Discard); err == nil {
		t.Error("removed check mode still accepted")
	}
}

// TestHarnessSmall runs the lifecycle harness once without assert.
func TestHarnessSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness in -short")
	}
	var b strings.Builder
	if err := run([]string{"-mode", "harness", "-jobs", "2"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"pending->firing", "firing->inactive"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("harness output missing %q:\n%s", want, b.String())
		}
	}
}

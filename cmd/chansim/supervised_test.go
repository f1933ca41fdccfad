package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/capserver"
	"repro/internal/obs"
)

// update regenerates the golden files instead of comparing.
var update = flag.Bool("update", false, "rewrite golden files")

// supervisedPoint is one seeded supervised run, spelled both as
// chansim flags and as a /v1/simulate or /v1/trace query.
type supervisedPoint struct {
	proto           string
	n, delay        int
	pd, pi          float64
	symbols         int
	seed            uint64
	inject          string
	pinOnly         bool // chansim-only spelling the server rejects
	wantRetryOrSync bool // the regime forces retries or resyncs
}

func (p supervisedPoint) args() []string {
	return []string{"-proto", p.proto, "-n", strconv.Itoa(p.n),
		"-pd", strconv.FormatFloat(p.pd, 'g', -1, 64), "-pi", strconv.FormatFloat(p.pi, 'g', -1, 64),
		"-delay", strconv.Itoa(p.delay), "-symbols", strconv.Itoa(p.symbols),
		"-seed", strconv.FormatUint(p.seed, 10), "-inject", p.inject}
}

func (p supervisedPoint) query() string {
	v := url.Values{}
	v.Set("proto", p.proto)
	v.Set("n", strconv.Itoa(p.n))
	v.Set("pd", strconv.FormatFloat(p.pd, 'g', -1, 64))
	v.Set("pi", strconv.FormatFloat(p.pi, 'g', -1, 64))
	v.Set("delay", strconv.Itoa(p.delay))
	v.Set("symbols", strconv.Itoa(p.symbols))
	v.Set("seed", strconv.FormatUint(p.seed, 10))
	v.Set("inject", p.inject)
	return v.Encode()
}

// supervisedPoints cover every channel-backed protocol, fault stacks
// of one and two layers, and outage=0.8 and 0.9 regimes that force
// retries, backoff, resyncs and abandoned chunks.
var supervisedPoints = []supervisedPoint{
	{proto: "counter", n: 4, pd: 0.1, pi: 0.05, delay: 1, symbols: 3000, seed: 3, inject: "outage=0.8", wantRetryOrSync: true},
	{proto: "counter", n: 4, pd: 0.2, delay: 1, symbols: 2000, seed: 1, inject: "outage=0.2"},
	{proto: "arq", n: 4, pd: 0.1, delay: 1, symbols: 2000, seed: 5, inject: "drift=0.1"},
	{proto: "naive", n: 3, pd: 0.05, pi: 0.05, delay: 1, symbols: 2000, seed: 2, inject: "drift=0.1", wantRetryOrSync: true},
	{proto: "delayed", n: 4, pd: 0.2, delay: 2, symbols: 2000, seed: 4, inject: "outage=0.2;jam=0.1"},
	{proto: "arq", n: 4, pd: 0.05, delay: 1, symbols: 1000, seed: 1, inject: "stuck=0.1;outage=0.9", wantRetryOrSync: true},
	// chansim zeroes pi for the ARQ protocols; the server rejects it.
	{proto: "arq", n: 4, pd: 0.1, pi: 0.1, delay: 1, symbols: 2000, seed: 6, inject: "jam=0.1", pinOnly: true},
}

// TestRunInjectedGolden pins chansim -inject's report, untraced and
// traced, and the sha256 of the JSONL trace, for every supervised
// point. Run with -update to accept a deliberate change.
func TestRunInjectedGolden(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	for i, p := range supervisedPoints {
		args := p.args()
		stdout, err := capture(t, func() error { return run(args) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fmt.Fprintf(&out, "$ chansim %s\n%s", strings.Join(args, " "), stdout)

		trace := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
		traced := append(args, "-trace", trace)
		stdout, err = capture(t, func() error { return run(traced) })
		if err != nil {
			t.Fatalf("%v: %v", traced, err)
		}
		b, err := os.ReadFile(trace)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "$ chansim %s -trace T\n%strace sha256 %x\n", strings.Join(args, " "), stdout, sha256.Sum256(b))
	}
	golden := filepath.Join("testdata", "inject.golden")
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("chansim -inject drifted from golden (run with -update to accept):\ngot:\n%s\nwant:\n%s", out.Bytes(), want)
	}
}

// supervisedReport renders a server-side supervised run in chansim's
// report lines, so the two can be compared line by line.
func supervisedReport(uses int, status string, rate float64, chunks, failed, attempts, retries int, backoff int64, resyncs, recoveries int) []string {
	return []string{
		fmt.Sprintf("channel uses:        %d (", uses),
		fmt.Sprintf("measured rate:       %.4f bits/use", rate),
		fmt.Sprintf("supervision status:  %s", status),
		fmt.Sprintf("chunks:              %d (failed: %d)", chunks, failed),
		fmt.Sprintf("attempts:            %d (retries: %d, backoff uses: %d)", attempts, retries, backoff),
		fmt.Sprintf("resyncs:             %d (recoveries: %d)", resyncs, recoveries),
	}
}

// TestOfflineReproducesServer checks the documented claim that a
// /v1/simulate or /v1/trace run is reproduced offline by chansim
// -inject with the echoed parameters: same uses, status, chunk,
// attempt, retry, resync, recovery and backoff accounting, and the
// same information rate; and for /v1/trace, chansim's -trace file
// analyzes to the same events and use tallies the endpoint reports.
//
// retries differs by definition between the two endpoints: the
// supervisor counts failed attempts, the trace analyzer counts
// attempts numbered 2 and up, so a chunk that exhausts its attempts
// (the outage=0.9 point) counts once more in /v1/simulate. The test
// pins both: /v1/trace's against the offline trace, /v1/simulate's
// against chansim's report and the identity failed attempts =
// attempts - (chunks - failed chunks).
func TestOfflineReproducesServer(t *testing.T) {
	srv := capserver.New(capserver.Config{Workers: 1, SessionSweep: -1})
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	get := func(target string, into any) {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), into); err != nil {
			t.Fatalf("%s: %v", target, err)
		}
	}
	trace := filepath.Join(t.TempDir(), "run.jsonl")
	for _, p := range supervisedPoints {
		if p.pinOnly {
			continue
		}
		stdout, err := capture(t, func() error { return run(append(p.args(), "-trace", trace)) })
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(trace)
		if err != nil {
			t.Fatal(err)
		}
		offline, err := obs.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		var sim capserver.SimulateResponse
		get("/v1/simulate?"+p.query(), &sim)
		var tr capserver.TraceResponse
		get("/v1/trace?"+p.query(), &tr)

		if p.wantRetryOrSync && sim.Retries+sim.Resyncs == 0 {
			t.Errorf("%s: regime forced no retry or resync", p.query())
		}
		if failed := sim.Attempts - (sim.Chunks - sim.FailedChunks); sim.Retries != failed {
			t.Errorf("%s: /v1/simulate retries %d, want %d failed attempts", p.query(), sim.Retries, failed)
		}
		if tr.Retries != offline.Retries || tr.Events != offline.Events || tr.Estimate.Uses != offline.Uses() ||
			tr.Estimate.Injected != offline.Injected || tr.Estimate.Deletes != offline.Deletes ||
			tr.Estimate.Inserts != offline.Inserts || tr.Estimate.Substitutes != offline.Substitutes {
			t.Errorf("%s: /v1/trace %+v, offline trace %+v", p.query(), tr, offline)
		}
		for endpoint, want := range map[string][]string{
			"simulate": append(supervisedReport(sim.Uses, sim.Status, sim.InfoRatePerUse, sim.Chunks, sim.FailedChunks,
				sim.Attempts, sim.Retries, sim.BackoffUses, sim.Resyncs, sim.Recoveries),
				fmt.Sprintf("(injected faults: %d)", sim.InjectedFaults)),
			"trace": supervisedReport(tr.Uses, tr.Status, tr.InfoRatePerUse, int(tr.Chunks), int(tr.FailedChunks),
				int(tr.Attempts), sim.Retries, tr.BackoffUses, int(tr.Resyncs), int(tr.Recoveries)),
		} {
			for _, line := range want {
				if !strings.Contains(stdout, line) {
					t.Errorf("%s via /v1/%s: chansim report lacks %q:\n%s", p.query(), endpoint, line, stdout)
				}
			}
		}
	}
}

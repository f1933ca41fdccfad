package main

import (
	"bytes"
	"os"
	"testing"

	"repro/internal/session"
)

// smallPlan renders a plan for a short run, so the tests stay fast.
func smallPlan(t *testing.T, workload string, seed uint64) *plan {
	t.Helper()
	p, err := buildPlan(workload, seed, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlanDigestFollowsSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := smallPlan(t, w, 7).digest(), smallPlan(t, w, 7).digest(), smallPlan(t, w, 8).digest()
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 both gave digest %s", w, a)
		}
	}
}

// TestSessionsOwnedAndOrdered checks that 409s are impossible by
// construction: every session belongs to one client, its batches go
// out in plan order with strictly increasing use indices, no session is
// read before its first batch, and one request in nine is a read.
func TestSessionsOwnedAndOrdered(t *testing.T) {
	p := smallPlan(t, "session-ingest", 3)
	owner := map[string]int{}
	lastUse := map[string]int64{}
	var gets, all int
	for c, seq := range p.clients {
		for i := range seq {
			o := &seq[i]
			id := sessionID(int(o.slot))
			if prev, ok := owner[id]; ok && prev != c {
				t.Fatalf("session %s sent by clients %d and %d", id, prev, c)
			}
			owner[id] = c
			all++
			if o.endpoint == epGet {
				if _, ok := lastUse[id]; !ok {
					t.Fatalf("session %s is read before any batch", id)
				}
				gets++
				continue
			}
			evs, err := session.DecodeBatch(bytes.NewReader(p.bodies[o.body]), lastUse[id], 0)
			if err != nil {
				t.Fatalf("session %s batch %d: %v", id, o.batches, err)
			}
			if len(evs) != sessionEvents {
				t.Fatalf("session %s batch %d has %d events", id, o.batches, len(evs))
			}
			lastUse[id] = evs[len(evs)-1].Use
			if want := int64(o.batches) * sessionEvents; lastUse[id] != want {
				t.Fatalf("session %s at use %d after %d batches, want %d", id, lastUse[id], o.batches, want)
			}
		}
	}
	if len(owner) != sessionSlots {
		t.Fatalf("plan touches %d sessions, want %d", len(owner), sessionSlots)
	}
	if d := all - 9*gets; d < -sessionSlots || d > sessionSlots*9 {
		t.Fatalf("%d GETs in %d requests, want about one in nine", gets, all)
	}
}

func TestColdKeysDistinct(t *testing.T) {
	p := smallPlan(t, "cold-mix", 5)
	seen := map[string]bool{}
	all := append([]op(nil), p.warm...)
	for _, seq := range p.clients {
		all = append(all, seq...)
	}
	for i := range all {
		u := p.uri(&all[i])
		if seen[u] {
			t.Fatalf("cold-mix repeats %s", u)
		}
		seen[u] = true
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {9, 0}, {20, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}, {1000000, 99.999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	if got := percentile(s, 99); got != 990 || beyond(len(s), 99) != 10 {
		t.Errorf("p99 of 1..1000 = %d with %d beyond, want 990 with 10", got, beyond(len(s), 99))
	}
}

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{{start: 10, end: 30}}, 80},
		{"two disjoint", []span{{start: 10, end: 30}, {start: 50, end: 60}}, 70},
		{"overlapping count once", []span{{start: 10, end: 30}, {start: 20, end: 40}}, 70},
		{"clipped to the parent", []span{{start: 90, end: 120}}, 90},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestResidual(t *testing.T) {
	rec := newRecorder()
	a, b := idOf("a"), idOf("b")
	rec.add(span{req: a, name: spanClient, start: 0, end: 100})
	rec.add(span{req: a, name: spanHandler, parent: spanClient, start: 10, end: 80})
	rec.add(span{req: a, name: spanServe, parent: spanHandler, start: 20, end: 70})
	rec.add(span{req: b, name: spanClient, start: 0, end: 100})
	rec.add(span{req: idOf("t1"), name: spanRoute, parent: spanClient, start: -5, end: 110})
	rec.alias(idOf("t1"), b)
	trees, _ := rec.buildTrees()
	want := map[reqID]int64{a: 30, b: -15}
	for _, tr := range trees {
		got, ok := tr.residual()
		if !ok || got != want[tr.req] {
			t.Errorf("request %x: residual %d (%t), want %d", tr.req, got, ok, want[tr.req])
		}
	}
	if len(trees) != 2 {
		t.Fatalf("got %d trees, want 2 (the alias joins t1 to b)", len(trees))
	}
}

func TestWindowCutter(t *testing.T) {
	// 2.5 windows of latencies, falling within each window.
	var w windowCutter
	n := windowSamples * 5 / 2
	for i := n - 1; i >= 0; i-- {
		w.add(int64(i))
	}
	w.finish()
	if len(w.windows) != 2 {
		t.Fatalf("got %d windows, want 2 (the partial third is dropped)", len(w.windows))
	}
	// The first window holds latencies n-windowSamples .. n-1, the
	// second the block below it.
	lo := n - 2*windowSamples
	if got, want := w.windows[1].p50, float64(lo+windowSamples/2-1)/1e3; got != want {
		t.Errorf("second window p50 = %v us, want %v", got, want)
	}
	if got, want := w.windows[1].p99, float64(lo+windowSamples*99/100-1)/1e3; got != want {
		t.Errorf("second window p99 = %v us, want %v", got, want)
	}
	// A run's p50 is the mean of its windows' p50s, its p99 their median.
	ph := &phaseResult{windows: []window{{p50: 100, p99: 900}, {p50: 100, p99: 1000}, {p50: 160, p99: 5000}}}
	if e := ph.e2e(); e.p50 != 120 || e.p99 != 1000 {
		t.Errorf("p50 %v and p99 %v over three windows, want the mean 120 and the median 1000", e.p50, e.p99)
	}
	var one windowCutter
	for i := 0; i < 10; i++ {
		one.add(int64(i))
	}
	one.finish()
	if len(one.windows) != 1 {
		t.Errorf("a client with less than one window gives %d windows, want 1", len(one.windows))
	}
}

// TestSmoke runs every workload end to end, traced, for a moment: the
// correctness checks and the reconciliation must pass.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots every workload's servers")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		if code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", "1"}); code != 0 {
			t.Errorf("%s: exit status %d", w, code)
		}
	}
}

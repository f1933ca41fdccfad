package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"testing"

	"repro/internal/capserver"
)

// testFleet boots n1..n3 with hedging off and records every build's
// generation per member.
func testFleet(t *testing.T) (*Fleet, map[string][]int) {
	t.Helper()
	gens := make(map[string][]int)
	f, err := NewFleet([]string{"n3", "n1", "n2"}, func(name string, generation int, mem Membership) (*capserver.Server, *Node, error) {
		gens[name] = append(gens[name], generation)
		srv := capserver.New(capserver.Config{Workers: 1, SessionSweep: -1})
		node, err := NewNode(srv, Config{Self: name, Membership: mem, HedgeDelay: -1})
		return srv, node, err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, gens
}

// TestFleetRestartRebindsAddress: a restart rebinds the member's old
// address with a fresh incarnation (generation 2, zeroed counters),
// and peers forward to it there.
func TestFleetRestartRebindsAddress(t *testing.T) {
	f, gens := testFleet(t)
	if !slices.Equal(f.Names(), []string{"n1", "n2", "n3"}) {
		t.Fatalf("names %v, want sorted", f.Names())
	}

	// A path n2 owns, asked through n1, is forwarded to n2.
	ring, err := NewRing(f.Names(), 0)
	if err != nil {
		t.Fatal(err)
	}
	path := ""
	for n := 1; n <= 16 && path == ""; n++ {
		p := fmt.Sprintf("/v1/bounds?n=%d&pd=0.2", n)
		req, _ := http.NewRequest(http.MethodGet, "http://x"+p, nil)
		if key, ok := f.Server("n1").Canonicalize(req); ok && ring.Owner(key) == "n2" {
			path = p
		}
	}
	if path == "" {
		t.Fatal("no probe path owned by n2")
	}
	get := func() *http.Response {
		t.Helper()
		resp, err := http.Get(f.URL("n1") + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	if resp := get(); resp.StatusCode != http.StatusOK || resp.Header.Get(PeerHeader) != "n2" {
		t.Fatalf("before the kill: status %d peer %q, want 200 from n2", resp.StatusCode, resp.Header.Get(PeerHeader))
	}

	addr := f.Addr("n2")
	if err := f.Kill("n2"); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart("n2"); err != nil {
		t.Fatal(err)
	}
	if f.Addr("n2") != addr {
		t.Fatalf("restart moved n2 from %s to %s", addr, f.Addr("n2"))
	}
	if !slices.Equal(gens["n2"], []int{1, 2}) || !slices.Equal(gens["n1"], []int{1}) {
		t.Fatalf("generations %v", gens)
	}
	incs := f.Incarnations("n2")
	if len(incs) != 2 || incs[0] == incs[1] || incs[0].Metrics() == incs[1].Metrics() {
		t.Fatalf("restart did not build a fresh incarnation: %v", incs)
	}
	if resp := get(); resp.StatusCode != http.StatusOK || resp.Header.Get(PeerHeader) != "n2" {
		t.Fatalf("after the restart: status %d peer %q, want 200 from n2", resp.StatusCode, resp.Header.Get(PeerHeader))
	}
	f.Quiesce()
	if m := f.Incarnations("n1")[0].Metrics(); m.Forwards() != 2 || m.PeerErrors() != 0 {
		t.Fatalf("n1 forwards=%d peer_errors=%d, want 2 and 0", m.Forwards(), m.PeerErrors())
	}
}

// TestFleetLifecycleErrors: only a live member can be killed and only
// a dead one restarted; Live leaves killed members out.
func TestFleetLifecycleErrors(t *testing.T) {
	f, _ := testFleet(t)
	if err := f.Kill("n9"); err == nil {
		t.Error("killing a non-member succeeded")
	}
	if err := f.Restart("n9"); err == nil {
		t.Error("restarting a non-member succeeded")
	}
	if err := f.Restart("n3"); err == nil {
		t.Error("restarting a live member succeeded")
	}
	if err := f.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	if err := f.Kill("n1"); err == nil {
		t.Error("killing a dead member succeeded")
	}
	if live := f.Live(); !slices.Equal(live, []string{"n2", "n3"}) {
		t.Fatalf("live %v after killing n1, want [n2 n3]", live)
	}
	if _, err := http.Get(f.URL("n1") + "/v1/healthz"); err == nil {
		t.Fatal("a killed member still answers")
	}
	f.Quiesce()
	if live := f.Live(); len(live) != 0 {
		t.Fatalf("live %v after quiesce", live)
	}
}

// TestNewFleetFailureClosesListeners: a build that fails partway
// leaves every bound address free again.
func TestNewFleetFailureClosesListeners(t *testing.T) {
	var mem Membership
	boom := errors.New("boom")
	_, err := NewFleet([]string{"n1", "n2", "n3"}, func(name string, _ int, m Membership) (*capserver.Server, *Node, error) {
		mem = m
		srv := capserver.New(capserver.Config{Workers: 1, SessionSweep: -1})
		if name == "n2" {
			return srv, nil, boom
		}
		node, err := NewNode(srv, Config{Self: name, Membership: m})
		return srv, node, err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("NewFleet error %v, want the build's", err)
	}
	if len(mem.Members) != 3 {
		t.Fatalf("membership %v", mem)
	}
	for _, m := range mem.Members {
		l, err := net.Listen("tcp", m.URL[len("http://"):])
		if err != nil {
			t.Fatalf("%s's address still bound: %v", m.Name, err)
		}
		l.Close()
	}
}

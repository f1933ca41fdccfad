package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/capserver"
	"repro/internal/rng"
)

// BuildFunc starts incarnation generation (from 1) of a member: the one
// place a scenario states its capserver and router configuration. A
// server returned with an error is shut down by the fleet.
type BuildFunc func(name string, generation int, mem Membership) (*capserver.Server, *Node, error)

// Fleet is the in-process cluster fixture: one loopback listener per
// member, serving the member's current incarnation, with the lifecycle
// of DESIGN.md §11. One goroutine drives the lifecycle.
type Fleet struct {
	names   []string // sorted
	mem     Membership
	build   BuildFunc
	members map[string]*fleetMember
}

type fleetMember struct {
	addr string
	incs []*fleetInc // oldest first; the last is current
	live bool
}

// fleetInc is one incarnation. It counts its handlers, which
// http.Server.Close does not wait for, and its unused connections,
// which http.Server.Shutdown waits seconds for.
type fleetInc struct {
	srv    *capserver.Server
	node   *Node
	hsrv   *http.Server
	served chan struct{} // closed when Serve returns

	mu       sync.Mutex
	stopped  bool
	handlers sync.WaitGroup
	fresh    map[net.Conn]bool
}

func (inc *fleetInc) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	inc.mu.Lock()
	if inc.stopped {
		inc.mu.Unlock()
		panic(http.ErrAbortHandler) // a stopped incarnation runs nothing
	}
	inc.handlers.Add(1)
	inc.mu.Unlock()
	defer inc.handlers.Done()
	inc.node.Handler().ServeHTTP(w, r)
}

func (inc *fleetInc) connState(c net.Conn, st http.ConnState) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if st != http.StateNew {
		delete(inc.fresh, c)
	} else if inc.stopped {
		_ = c.Close()
	} else {
		inc.fresh[c] = true
	}
}

// stop refuses later requests, drops unused connections and waits for
// the running handlers.
func (inc *fleetInc) stop() {
	inc.mu.Lock()
	inc.stopped = true
	for c := range inc.fresh {
		_ = c.Close()
	}
	inc.mu.Unlock()
	inc.handlers.Wait()
}

// NewFleet binds a listener per member, builds the membership and
// starts generation 1 of every member. On failure it leaves nothing
// bound or running.
func NewFleet(names []string, build BuildFunc) (*Fleet, error) {
	if _, err := NewRing(names, 1); err != nil {
		return nil, err
	}
	f := &Fleet{names: slices.Clone(names), build: build, members: make(map[string]*fleetMember)}
	sort.Strings(f.names)
	var ls []net.Listener
	for _, name := range f.names {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, closeAll(ls, err)
		}
		ls = append(ls, l)
		f.members[name] = &fleetMember{addr: l.Addr().String()}
		f.mem.Members = append(f.mem.Members, Member{Name: name, URL: "http://" + l.Addr().String()})
	}
	for i, name := range f.names {
		if err := f.start(name, ls[i]); err != nil {
			f.Close()
			return nil, closeAll(ls[i+1:], err)
		}
	}
	return f, nil
}

func closeAll(ls []net.Listener, err error) error {
	for _, l := range ls {
		_ = l.Close()
	}
	return err
}

// start serves the member's next incarnation on l (closed on failure).
func (f *Fleet) start(name string, l net.Listener) error {
	m := f.members[name]
	srv, node, err := f.build(name, len(m.incs)+1, f.mem)
	if err != nil {
		_ = l.Close()
		if srv != nil {
			_ = srv.Shutdown(context.Background()) // the build error is the one to report
		}
		return err
	}
	inc := &fleetInc{srv: srv, node: node, served: make(chan struct{}), fresh: make(map[net.Conn]bool)}
	inc.hsrv = &http.Server{Handler: inc, ConnState: inc.connState}
	m.incs, m.live = append(m.incs, inc), true
	go func() {
		defer close(inc.served)
		_ = inc.hsrv.Serve(l)
	}()
	return nil
}

// Names returns the member names, sorted.
func (f *Fleet) Names() []string { return f.names }

// Addr returns a member's host:port, which a restart keeps.
func (f *Fleet) Addr(name string) string { return f.members[name].addr }

// URL returns a member's base URL.
func (f *Fleet) URL(name string) string { return "http://" + f.Addr(name) }

// Live returns the serving members, sorted.
func (f *Fleet) Live() []string {
	return slices.DeleteFunc(slices.Clone(f.names), func(name string) bool { return !f.members[name].live })
}

// Server returns the capserver of a member's current incarnation.
func (f *Fleet) Server(name string) *capserver.Server {
	incs := f.members[name].incs
	return incs[len(incs)-1].srv
}

// Incarnations returns every generation's router of a member, in order.
func (f *Fleet) Incarnations(name string) []*Node {
	var nodes []*Node
	for _, inc := range f.members[name].incs {
		nodes = append(nodes, inc.node)
	}
	return nodes
}

// Kill abruptly closes a live member's listener and connections.
func (f *Fleet) Kill(name string) error {
	m := f.members[name]
	if m == nil || !m.live {
		return fmt.Errorf("cluster: kill %q: not a live member", name)
	}
	m.live = false
	return m.incs[len(m.incs)-1].hsrv.Close()
}

// Restart starts a killed member's next incarnation on its address.
func (f *Fleet) Restart(name string) error {
	m := f.members[name]
	if m == nil || m.live {
		return fmt.Errorf("cluster: restart %q: not a killed member", name)
	}
	l, err := net.Listen("tcp", m.addr)
	if err != nil {
		return fmt.Errorf("cluster: restart %s: %v", name, err)
	}
	return f.start(name, l)
}

// Quiesce stops the fleet and waits until nothing it started runs:
// every incarnation refuses new requests and finishes its running
// ones, live members shut down gracefully, then every router's peer
// goroutines return. Counters and spans are final afterwards.
func (f *Fleet) Quiesce() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.each(func(m *fleetMember, inc *fleetInc) {
		m.live = false
		inc.stop()
		if inc.hsrv.Shutdown(ctx) != nil {
			_ = inc.hsrv.Close()
		}
		<-inc.served
	})
	f.each(func(_ *fleetMember, inc *fleetInc) { inc.node.WaitPeers() })
}

// Close quiesces the fleet and shuts down every incarnation's
// capserver (pool, session janitor, health ticker), killed ones too.
func (f *Fleet) Close() {
	f.Quiesce()
	// A capserver's own http.Server never served here, so its Shutdown
	// only stops the pool, janitor and ticker, and cannot fail.
	f.each(func(_ *fleetMember, inc *fleetInc) { _ = inc.srv.Shutdown(context.Background()) })
}

func (f *Fleet) each(fn func(*fleetMember, *fleetInc)) {
	for _, name := range f.names {
		for _, inc := range f.members[name].incs {
			fn(f.members[name], inc)
		}
	}
}

// send issues a client request through a seeded pick over all members,
// rotating past refusals: the client discovers which member is dead.
// refused counts the refusals, all members' when err is non-nil.
func (f *Fleet) send(pick *rng.Source, do func(base string) (*http.Response, error)) (resp *http.Response, refused int, err error) {
	first := pick.Intn(len(f.names))
	for ; refused < len(f.names); refused++ {
		if resp, err = do(f.URL(f.names[(first+refused)%len(f.names)])); err == nil {
			return resp, refused, nil
		}
	}
	return nil, refused, err
}

// faultPlan kills victim before step killAt and restarts it before
// step restartAt (negative: never) on a scenario's logical clock —
// request index, batch round or health tick, never wall time.
type faultPlan struct {
	victim            string
	killAt, restartAt int
}

// newFaultPlan checks a schedule against the sorted names; the victim
// defaults to the middle member.
func newFaultPlan(names []string, victim string, killAt, restartAt int) (faultPlan, error) {
	if victim == "" {
		victim = names[len(names)/2]
	}
	if !slices.Contains(names, victim) {
		return faultPlan{}, fmt.Errorf("cluster: kill node %q is not a member", victim)
	}
	if killAt < 0 {
		restartAt = -1
	} else if restartAt >= 0 && restartAt <= killAt {
		return faultPlan{}, fmt.Errorf("cluster: restart step (%d) must come after kill step (%d)", restartAt, killAt)
	}
	return faultPlan{victim, killAt, restartAt}, nil
}

// apply runs the fault due before step i and reports which one ran.
func (p faultPlan) apply(f *Fleet, i int) (killed, restarted bool, err error) {
	switch i {
	case p.killAt:
		return true, false, f.Kill(p.victim)
	case p.restartAt:
		return false, true, f.Restart(p.victim)
	}
	return false, false, nil
}

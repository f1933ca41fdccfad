package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/capserver"
	"repro/internal/cluster"
	"repro/internal/cluster/casstore"
	"repro/internal/obs"
)

// system is the program under test, booted in this process: one
// capserver behind net/http, or a three-member cluster over one shared
// casstore directory. With a recorder it is the traced variant: the
// benchmark wraps the public entry points it constructs and records a
// span around each call; nothing inside the program is instrumented.
type system struct {
	servers []*capserver.Server
	nodes   []*cluster.Node
	https   []*http.Server
	hosts   []string // host:port per member
	dir     string   // casstore directory (cluster only)
	rec     *recorder
	epoch   time.Time
}

// now is the system's clock for client timings, in ns: the recorder's
// when tracing, so client and server spans share one time base.
func (sys *system) now() int64 {
	if sys.rec != nil {
		return sys.rec.now()
	}
	return int64(time.Since(sys.epoch))
}

// boot starts the workload's servers. workDir holds the cluster's
// casstore directory.
func boot(workload, workDir string, rec *recorder) (*system, error) {
	sys := &system{rec: rec, epoch: time.Now()}
	if workload != "cluster-warm" {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := capserver.New(capserver.Config{})
		var h http.Handler = srv.Handler()
		if rec != nil {
			h = &tracedServer{srv: srv, rec: rec}
		}
		sys.serve(l, srv, h)
		return sys, nil
	}
	dir, err := os.MkdirTemp(workDir, "casstore-")
	if err != nil {
		return nil, err
	}
	sys.dir = dir
	var lis []net.Listener
	fail := func(err error) (*system, error) {
		for _, l := range lis[len(sys.https):] { // bound but not yet served
			l.Close()
		}
		sys.close()
		return nil, err
	}
	var mem cluster.Membership
	for i := 0; i < clusterMembers; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lis = append(lis, l)
		mem.Members = append(mem.Members, cluster.Member{Name: memberName(i), URL: "http://" + l.Addr().String()})
	}
	for i, l := range lis {
		st, err := casstore.Open(filepath.Join(dir, "store"))
		if err != nil {
			return fail(err)
		}
		var store capserver.ResultStore = st
		if rec != nil {
			store = &tracedStore{inner: st, rec: rec}
		}
		srv := capserver.New(capserver.Config{Store: store})
		ncfg := cluster.Config{Self: memberName(i), Membership: mem}
		var local interface {
			Handler() http.Handler
			Canonicalize(r *http.Request) (string, bool)
		} = srv
		if rec != nil {
			local = &tracedLocal{srv: srv, rec: rec}
			ncfg.Tracer = obs.NewTracer(io.Discard)
			ncfg.Client = &http.Client{Timeout: 30 * time.Second, Transport: &tracedTransport{inner: http.DefaultTransport, rec: rec}}
		}
		node, err := cluster.NewNode(local, ncfg)
		if err != nil {
			_ = srv.Shutdown(context.Background()) // the NewNode error is the one to report
			return fail(err)
		}
		var h http.Handler = node.Handler()
		if rec != nil {
			h = &tracedNode{inner: h, rec: rec}
		}
		sys.nodes = append(sys.nodes, node)
		sys.serve(l, srv, h)
	}
	return sys, nil
}

func memberName(i int) string { return "n" + strconv.Itoa(i+1) }

// serve starts an http.Server with handler h on l; srv is the
// capserver behind it. close stops both.
func (sys *system) serve(l net.Listener, srv *capserver.Server, h http.Handler) {
	hs := &http.Server{Handler: h}
	sys.servers = append(sys.servers, srv)
	sys.https = append(sys.https, hs)
	sys.hosts = append(sys.hosts, l.Addr().String())
	go func() { _ = hs.Serve(lingerless{l}) }()
}

// lingerless sets SO_LINGER 0 on every accepted connection, so that
// close resets it instead of leaving a TIME_WAIT socket. A run boots
// up to hundreds of systems; with ordinary closes one cluster-warm run
// left about a thousand TIME_WAIT sockets, and back-to-back runs piled
// them up in the kernel for the next runs to connect past. Requests
// are not affected: the servers close connections only at shutdown,
// which comes before the clients'.
type lingerless struct{ net.Listener }

func (l lingerless) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // on failure the close is an ordinary one
	}
	return c, err
}

// close stops the servers once the clients have stopped: it closes
// every connection, drains each capserver's worker pool, then removes
// the store.
func (sys *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, hs := range sys.https {
		if err := hs.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, srv := range sys.servers {
		if err := srv.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	// Cluster peers forward over the default transport; its idle
	// connections point at servers that are now gone.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	if sys.dir != "" {
		if err := os.RemoveAll(sys.dir); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// counters is the sum of the program's own counters over every member.
type counters struct {
	hits, shared, computes, storeHits, rejected, abandoned int64
	owned, forwards, hedges, retries, degraded             int64
}

func (sys *system) counters() counters {
	var c counters
	for _, srv := range sys.servers {
		m := srv.Metrics()
		c.hits += m.CacheHits()
		c.shared += m.CacheShared()
		c.storeHits += m.StoreHits()
		c.rejected += m.QueueRejected()
		c.abandoned += m.Abandoned()
		for ep := epBounds; ep <= epSimulate; ep++ {
			c.computes += m.ComputeCalls(endpointNames[ep])
		}
	}
	for _, n := range sys.nodes {
		m := n.Metrics()
		c.owned += m.OwnedLocal()
		c.forwards += m.Forwards()
		c.hedges += m.Hedges()
		c.retries += m.Retries()
		c.degraded += m.Degraded()
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		hits: c.hits - o.hits, shared: c.shared - o.shared, computes: c.computes - o.computes,
		storeHits: c.storeHits - o.storeHits, rejected: c.rejected - o.rejected, abandoned: c.abandoned - o.abandoned,
		owned: c.owned - o.owned, forwards: c.forwards - o.forwards, hedges: c.hedges - o.hedges,
		retries: c.retries - o.retries, degraded: c.degraded - o.degraded,
	}
}

// lookups is every request that consulted a result cache: hits,
// joins, and leaders that computed, read the store, or were turned
// away.
func (c counters) lookups() int64 {
	return c.hits + c.shared + c.computes + c.storeHits + c.rejected + c.abandoned
}

// Header names the benchmark adds to traced requests only. benchHeader
// carries the client's request ID through the origin node, which
// replaces obs.TraceHeader with an ID of its own.
const benchHeader = "X-Perfbench-Req"

// requestKey is the ID a server-side span files under: the client's
// ID where the request still carries it, else the cluster trace ID
// (forwarded hops), aliased back to the client's ID after the run.
func requestKey(r *http.Request) reqID {
	if id := r.Header.Get(benchHeader); id != "" {
		return idOf(id)
	}
	return idOf(r.Header.Get(obs.TraceHeader))
}

// tracedServer wraps capserver.Server.Handler() on a single node. It
// also times Server.Canonicalize on each request, which the node never
// calls for itself, to size the parse-and-key step of the serve span.
type tracedServer struct {
	srv *capserver.Server
	rec *recorder
}

func (t *tracedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := requestKey(r)
	c0 := t.rec.now()
	t.srv.Canonicalize(r)
	s0 := t.rec.now()
	t.srv.Handler().ServeHTTP(w, r)
	s1 := t.rec.now()
	t.rec.add(span{req: id, name: spanCanon, parent: spanHandler, start: c0, end: s0})
	t.rec.add(serveSpan(id, spanHandler, s0, s1, w.Header()))
	t.rec.add(span{req: id, name: spanHandler, parent: spanClient, start: c0, end: s1})
}

func serveSpan(id reqID, parent spanKind, s0, s1 int64, h http.Header) span {
	return span{
		req: id, name: spanServe, parent: parent, start: s0, end: s1,
		cache:     cacheClass(h.Get(capserver.CacheHeader)),
		queueUS:   headerInt(h, capserver.TraceQueueHeader),
		computeUS: headerInt(h, capserver.TraceComputeHeader),
		timed:     h.Get(capserver.TraceComputeHeader) != "",
	}
}

func headerInt(h http.Header, name string) int64 {
	v, err := strconv.ParseInt(h.Get(name), 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// tracedLocal is the local server handed to cluster.NewNode: any type
// with Handler() and Canonicalize() satisfies that parameter.
type tracedLocal struct {
	srv *capserver.Server
	rec *recorder
}

func (t *tracedLocal) Canonicalize(r *http.Request) (string, bool) {
	c0 := t.rec.now()
	key, ok := t.srv.Canonicalize(r)
	t.rec.add(span{req: requestKey(r), name: spanCanon, parent: spanRoute, start: c0, end: t.rec.now()})
	return key, ok
}

func (t *tracedLocal) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent := spanRoute
		if r.Header.Get(cluster.ForwardedHeader) != "" {
			parent = spanRemote
		}
		s0 := t.rec.now()
		t.srv.Handler().ServeHTTP(w, r)
		t.rec.add(serveSpan(requestKey(r), parent, s0, t.rec.now(), w.Header()))
	})
}

// tracedNode wraps cluster.Node.Handler(). On the origin it records the
// route span and learns the trace ID the node minted from the response;
// on the owner it records the remote span under that trace ID.
type tracedNode struct {
	inner http.Handler
	rec   *recorder
}

func (t *tracedNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	forwarded := r.Header.Get(cluster.ForwardedHeader) != ""
	id := requestKey(r)
	s0 := t.rec.now()
	t.inner.ServeHTTP(w, r)
	s1 := t.rec.now()
	if forwarded {
		t.rec.add(span{req: id, name: spanRemote, parent: spanForward, start: s0, end: s1})
		return
	}
	if tid := w.Header().Get(obs.TraceHeader); tid != "" {
		t.rec.alias(idOf(tid), id)
	}
	t.rec.add(span{req: id, name: spanRoute, parent: spanClient, start: s0, end: s1})
}

// tracedTransport is the peer client's transport: it times each
// forwarded round trip from send to the body's close.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := idOf(req.Header.Get(obs.TraceHeader))
	s0 := t.rec.now()
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		t.rec.add(span{req: id, name: spanForward, parent: spanRoute, start: s0, end: t.rec.now(), failed: true})
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(failed bool) {
		t.rec.add(span{req: id, name: spanForward, parent: spanRoute, start: s0, end: t.rec.now(), failed: failed})
	}}
	return resp, nil
}

type timedBody struct {
	io.ReadCloser
	done   func(failed bool)
	eof    bool
	closed bool
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.eof = true
	}
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if !b.closed {
		b.closed = true
		b.done(!b.eof)
	}
	return err
}

// tracedStore wraps the casstore behind each cluster member's capserver.
type tracedStore struct {
	inner *casstore.Store
	rec   *recorder
}

func (t *tracedStore) Get(key string) ([]byte, bool) {
	s0 := t.rec.now()
	b, ok := t.inner.Get(key)
	t.rec.add(span{name: spanStoreGet, start: s0, end: t.rec.now()})
	return b, ok
}

func (t *tracedStore) Put(key string, body []byte) {
	s0 := t.rec.now()
	t.inner.Put(key, body)
	t.rec.add(span{name: spanStorePut, start: s0, end: t.rec.now()})
}

package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"
)

// spanKind names the layer boundary a span was taken at.
type spanKind uint8

const (
	spanNone     spanKind = iota
	spanClient            // send to last body byte, client side
	spanHandler           // single node: the whole server-side wrapper
	spanCanon             // Server.Canonicalize
	spanServe             // capserver.Server.Handler().ServeHTTP
	spanRoute             // origin cluster.Node.Handler().ServeHTTP
	spanForward           // origin's peer round trip, send to body close
	spanRemote            // owner cluster.Node.Handler().ServeHTTP
	spanStoreGet          // ResultStore.Get on the casstore
	spanStorePut          // ResultStore.Put on the casstore
)

var spanNames = [...]string{"", "client", "capserver.handler", "capserver.canonicalize", "capserver.serve",
	"cluster.route", "cluster.forward", "cluster.remote", "casstore.get", "casstore.put"}

func (k spanKind) String() string { return spanNames[k] }

// reqID identifies a request: the FNV-1a hash of the ID the client
// sent, or of the trace ID the origin node minted. 0 is no request.
type reqID uint64

func idOf(s string) reqID {
	if s == "" {
		return 0
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return reqID(h)
}

// cacheClasses are the values of the X-Capserver-Cache header, by
// index; anything else files as "other".
var cacheClasses = [...]string{"", "hit", "shared", "store", "miss", "other"}

const cacheHit = 1

func cacheClass(v string) uint8 {
	for i, c := range cacheClasses {
		if c == v {
			return uint8(i)
		}
	}
	return uint8(len(cacheClasses) - 1)
}

// span is one timed call. Times are nanoseconds since the recorder's
// epoch on the monotonic clock. parent names the enclosing span's
// layer; the analysis resolves it to an index within the request. A
// span holds no pointers, so the recorder keeps spans off the heap.
type span struct {
	req        reqID
	name       spanKind
	parent     spanKind
	start, end int64
	// serve spans: the X-Capserver-Cache class (an index into
	// cacheClasses) and the trace-gated queue/compute split; timed
	// marks that the split was present.
	cache              uint8
	queueUS, computeUS int64
	timed              bool
	// client spans: endpoint class, connection reuse and, for session
	// reads, whether the bounds came from the cache.
	endpoint     uint8
	reused       bool
	boundsCached bool
	// forward spans: the round trip failed or its body was not read to
	// the end (a hedge's loser).
	failed bool
}

func (s *span) dur() int64 { return s.end - s.start }

// spanChunk is the number of spans in one of the recorder's chunks.
const spanChunk = 1 << 16

// recorder keeps spans in memory, in chunks outside the Go heap (see
// offheap.go); they are written out when the run ends.
type recorder struct {
	epoch   time.Time
	mu      sync.Mutex
	chunks  [][]span // full chunks, then the open one
	aliases map[reqID]reqID
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), aliases: map[reqID]reqID{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		c, err := mapped[span](spanChunk)
		if err != nil {
			// On the heap the spans only make the collector run less
			// often; the figures stay usable.
			c = make([]span, 0, spanChunk)
		}
		r.chunks = append(r.chunks, c)
		last++
	}
	r.chunks[last] = append(r.chunks[last], s)
	r.mu.Unlock()
}

func (r *recorder) alias(traceID, req reqID) {
	r.mu.Lock()
	r.aliases[traceID] = req
	r.mu.Unlock()
}

// tree is one request's spans with parents resolved.
type tree struct {
	req    reqID
	spans  []span
	parent []int // index of the parent span, -1 for the root
}

// buildTrees groups spans by request (following trace-ID aliases) and
// resolves each span's parent: the span of the parent layer in the same
// request that encloses it, or else the first one of that layer.
// Spans without a request (casstore calls) are returned separately.
func (r *recorder) buildTrees() (trees []*tree, loose []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	by := map[reqID]*tree{}
	var order []reqID
	for _, s := range slices.Concat(r.chunks...) {
		if s.req == 0 {
			loose = append(loose, s)
			continue
		}
		if a, ok := r.aliases[s.req]; ok {
			s.req = a
		}
		t := by[s.req]
		if t == nil {
			t = &tree{req: s.req}
			by[s.req] = t
			order = append(order, s.req)
		}
		t.spans = append(t.spans, s)
	}
	for _, id := range order {
		t := by[id]
		sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
		t.parent = make([]int, len(t.spans))
		for i := range t.spans {
			t.parent[i] = resolveParent(t.spans, i)
		}
		trees = append(trees, t)
	}
	return trees, loose
}

func resolveParent(spans []span, i int) int {
	want := spans[i].parent
	if want == spanNone {
		return -1
	}
	first := -1
	for j := range spans {
		if j == i || spans[j].name != want {
			continue
		}
		if first < 0 {
			first = j
		}
		if spans[j].start <= spans[i].start && spans[i].end <= spans[j].end {
			return j
		}
	}
	return first
}

func (t *tree) children(i int) []int {
	var out []int
	for j, p := range t.parent {
		if p == i {
			out = append(out, j)
		}
	}
	return out
}

// find returns the index of the first span with the name, or -1.
func (t *tree) find(name spanKind) int {
	for i := range t.spans {
		if t.spans[i].name == name {
			return i
		}
	}
	return -1
}

// selfTime is a span's duration minus the part of its interval that
// its children cover: overlapping children (a hedged forward racing
// the primary) count once, and a child running past its parent counts
// only inside the parent.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.start, parent.start), min(c.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		if !open || v.a > curB {
			if open {
				covered += curB - curA
			}
			curA, curB, open = v.a, v.b, true
			continue
		}
		curB = max(curB, v.b)
	}
	if open {
		covered += curB - curA
	}
	return parent.dur() - covered
}

// residual is the reconciliation of one request: client latency minus
// the sum of the server spans attributed directly to it. A negative
// value means the server claims time the client never waited for.
func (t *tree) residual() (int64, bool) {
	root := t.find(spanClient)
	if root < 0 {
		return 0, false
	}
	r := t.spans[root].dur()
	for _, c := range t.children(root) {
		r -= t.spans[c].dur()
	}
	return r, true
}

// class names a request for the reconciliation table: hit/miss/...
// from the serving cache class, forwarded when a peer hop served it,
// ingest/get for sessions.
func (t *tree) class() string {
	root := t.find(spanClient)
	if root >= 0 {
		switch t.spans[root].endpoint {
		case epIngest:
			return "ingest"
		case epGet:
			return "get"
		}
	}
	if t.find(spanForward) >= 0 {
		return "forwarded"
	}
	if s := t.find(spanServe); s >= 0 && t.spans[s].cache != 0 {
		return cacheClasses[t.spans[s].cache]
	}
	return "other"
}

// writeSpans writes every span as one line of tab-separated fields:
// request, name, parent index, start ns, end ns.
func writeSpans(path string, trees []*tree, loose []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	line := func(req string, parent int, s span) {
		w.WriteString(req)
		w.WriteByte('\t')
		w.WriteString(s.name.String())
		w.WriteByte('\t')
		w.WriteString(strconv.Itoa(parent))
		w.WriteByte('\t')
		w.WriteString(strconv.FormatInt(s.start, 10))
		w.WriteByte('\t')
		w.WriteString(strconv.FormatInt(s.end, 10))
		w.WriteByte('\n')
	}
	w.WriteString("# req\tname\tparent\tstart_ns\tend_ns\n")
	for _, t := range trees {
		for i, s := range t.spans {
			line(fmt.Sprintf("%016x", uint64(t.req)), t.parent[i], s)
		}
	}
	for _, s := range loose {
		line("-", -1, s)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

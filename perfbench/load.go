package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
)

// client is one closed-loop caller: it sends its next request only
// after the previous response's last byte has arrived. Each client has
// its own transport, so connection reuse is per client.
type client struct {
	id   int
	tr   *http.Transport
	hc   *http.Client
	hdr  http.Header
	buf  bytes.Buffer
	next int // index of the next op in the client's sequence
	seq  int // requests sent, for trace IDs
}

func newClients(p *plan) []*client {
	out := make([]*client, numClients)
	for i := range out {
		tr := &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
		c := &client{id: i, tr: tr, hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, hdr: http.Header{}}
		if p.workload == "session-ingest" {
			c.hdr.Set("Content-Type", "application/x-ndjson")
		}
		out[i] = c
	}
	return out
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
}

// result is one request as the client saw it.
type result struct {
	status int
	start  int64 // ns on the system's clock
	end    int64
	err    error
}

// send issues one request and reads the whole response body into
// c.buf, timing it on sys's clock. With a recorder it also tags the
// request with the client's ID, notes whether the connection was
// reused, and records the client span.
func (c *client) send(sys *system, uri string, body []byte, endpoint int, host string) result {
	rec := sys.rec
	path, query, _ := strings.Cut(uri, "?")
	req := &http.Request{
		Method:     http.MethodGet,
		URL:        &url.URL{Scheme: "http", Host: host, Path: path, RawQuery: query},
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     c.hdr,
		Host:       host,
	}
	if body != nil {
		req.Method = http.MethodPost
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	var id string
	var reused bool
	if rec != nil {
		c.seq++
		id = "c" + strconv.Itoa(c.id) + "-" + strconv.Itoa(c.seq)
		c.hdr.Set(benchHeader, id)
		c.hdr.Set(obs.TraceHeader, id)
		req = req.WithContext(httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
			GotConn: func(info httptrace.GotConnInfo) { reused = info.Reused },
		}))
	}
	res := result{start: sys.now()}
	c.buf.Reset()
	resp, err := c.hc.Do(req)
	if err == nil {
		_, err = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		res.status = resp.StatusCode
	}
	res.end = sys.now()
	res.err = err
	if rec != nil {
		s := span{req: idOf(id), name: spanClient, start: res.start, end: res.end, endpoint: uint8(endpoint), reused: reused}
		if endpoint == epGet {
			body := c.buf.Bytes()
			s.boundsCached = bytes.Contains(body, []byte(`"bounds_source":"hit"`)) || bytes.Contains(body, []byte(`"bounds_source":"shared"`))
		}
		rec.add(s)
	}
	return res
}

func (r result) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

func (sys *system) host(o *op) string { return sys.hosts[int(o.node)%len(sys.hosts)] }

// sendOp sends one planned op.
func (c *client) sendOp(sys *system, p *plan, o *op) result {
	var body []byte
	if o.body >= 0 {
		body = p.bodies[o.body]
	}
	return c.send(sys, p.uri(o), body, int(o.endpoint), sys.host(o))
}

// warmPass sends every warm op once, split over the clients in
// contiguous runs (a session's warm POST precedes its GET on one
// client), and fails on any non-2xx answer.
func warmPass(sys *system, p *plan, cs []*client) error {
	var wg sync.WaitGroup
	errs := make([]error, len(cs))
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := i * len(p.warm) / len(cs); k < (i+1)*len(p.warm)/len(cs); k++ {
				o := &p.warm[k]
				if r := c.sendOp(sys, p, o); !r.ok() {
					errs[i] = fmt.Errorf("warm pass: %s answered %d (%v)", p.uri(o), r.status, r.err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// capture is a response kept for the correctness check.
type capture struct {
	op     op
	status int
	body   []byte
}

// snapshot is the process state at a phase boundary.
type snapshot struct {
	at      time.Time
	cpuNs   int64
	mallocs uint64
	numGC   uint32
}

func takeSnapshot() snapshot {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{
		at:      time.Now(),
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
	}
}

// windowSamples is the number of consecutive responses of one client
// in a latency window: enough that ten lie beyond its p99.
const windowSamples = 2000

// window is the latency of windowSamples consecutive responses of one
// client in the timed phase.
type window struct {
	p50, p99 float64 // us
}

// windowCutter cuts one client's latencies into windows as the
// responses arrive, so the timed phase keeps one fixed buffer per
// client instead of every sample.
type windowCutter struct {
	buf     [windowSamples]int64 // ns, the open window
	n       int
	windows []window
}

func (w *windowCutter) add(lat int64) {
	w.buf[w.n] = lat
	w.n++
	if w.n == windowSamples {
		w.cut()
	}
}

func (w *windowCutter) cut() {
	lat := w.buf[:w.n]
	slices.Sort(lat)
	w.windows = append(w.windows, window{p50: float64(percentile(lat, 50)) / 1e3, p99: float64(percentile(lat, 99)) / 1e3})
	w.n = 0
}

// finish drops a partial last window, unless the client has no full
// one.
func (w *windowCutter) finish() {
	if len(w.windows) == 0 && w.n > 0 {
		w.cut()
	}
}

// phaseResult is one timed phase.
type phaseResult struct {
	seconds   float64
	attempted int64
	ok        int64
	windows   []window
	cpuNs     int64
	mallocs   uint64
	gcs       uint32
	status    map[int]int64
	okBy      [numEndpoints]int64 // 2xx responses by endpoint class
	errs      int64
	firstFail string   // the first failed request, if any
	ctr       counters // program counters over the timed phase
	captured  []capture
	// executed[c] is how many ops of client c's sequence were sent.
	executed []int
	// from and to bound the timed phase on the system's clock.
	from, to int64
	err      error
}

var errPlanExhausted = errors.New("plan exhausted before the run ended: raise the plan's rate cap")

// runPhase drives the closed loop: every client sends back to back for
// the ramp (untimed) and then for the timed phase. A request counts if
// its response completes inside the timed phase; the few still in
// flight when it ends count nowhere.
func runPhase(sys *system, p *plan, cs []*client, ramp, timed time.Duration, keepChecks bool) *phaseResult {
	var timing, stop atomic.Bool
	type perClient struct {
		lat       windowCutter
		attempted int64
		status    map[int]int64
		okBy      [numEndpoints]int64
		errs      int64
		firstFail string
		captured  []capture
		err       error
	}
	pcs := make([]*perClient, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		pc := &perClient{status: map[int]int64{}}
		pc.lat.windows = make([]window, 0, 256)
		pcs[i] = pc
		seq := p.clients[c.id]
		wg.Add(1)
		go func(c *client, pc *perClient) {
			defer wg.Done()
			for !stop.Load() {
				if c.next >= len(seq) {
					if !p.cyclic {
						pc.err = errPlanExhausted
						return
					}
					c.next = 0
				}
				o := &seq[c.next]
				c.next++
				r := c.sendOp(sys, p, o)
				if !timing.Load() {
					continue
				}
				pc.attempted++
				pc.lat.add(r.end - r.start)
				if r.err != nil {
					pc.errs++
				} else {
					pc.status[r.status]++
				}
				if r.ok() {
					pc.okBy[o.endpoint]++
				} else if pc.firstFail == "" {
					pc.firstFail = fmt.Sprintf("%s answered %d (%v)", p.uri(o), r.status, r.err)
				}
				if keepChecks && o.check && len(pc.captured) < checkPerClient {
					pc.captured = append(pc.captured, capture{op: *o, status: r.status, body: append([]byte(nil), c.buf.Bytes()...)})
				}
			}
		}(c, pc)
	}
	time.Sleep(ramp)
	s0 := takeSnapshot()
	ctr0 := sys.counters()
	from := sys.now()
	timing.Store(true)
	time.Sleep(timed)
	timing.Store(false)
	to := sys.now()
	s1 := takeSnapshot()
	ctr1 := sys.counters()
	stop.Store(true)
	wg.Wait()

	res := &phaseResult{
		seconds: s1.at.Sub(s0.at).Seconds(),
		cpuNs:   s1.cpuNs - s0.cpuNs,
		mallocs: s1.mallocs - s0.mallocs,
		gcs:     s1.numGC - s0.numGC,
		status:  map[int]int64{},
		ctr:     ctr1.sub(ctr0),
		from:    from,
		to:      to,
	}
	for i, pc := range pcs {
		pc.lat.finish()
		res.windows = append(res.windows, pc.lat.windows...)
		res.attempted += pc.attempted
		for k, v := range pc.status {
			res.status[k] += v
		}
		res.errs += pc.errs
		for ep, n := range pc.okBy {
			res.okBy[ep] += n
			res.ok += n
		}
		if res.firstFail == "" {
			res.firstFail = pc.firstFail
		}
		res.captured = append(res.captured, pc.captured...)
		res.executed = append(res.executed, cs[i].next)
		if pc.err != nil && res.err == nil {
			res.err = pc.err
		}
	}
	return res
}

// e2e is the end-to-end metric set of one phase.
type e2e struct {
	rps, p50, p99, cpuPerReq, allocsPerReq float64
	gcPerKReq                              float64
}

// e2e reports throughput as 2xx responses per second of the timed
// phase, p50 latency as the mean over the clients' windows, p99 latency
// as their median, and the per-request costs over the whole phase.
// On a shared host the service runs faster and slower by turns, for a
// second or so each; a window's p50 follows the pace of its stretch,
// and the mean weighs the stretches by their share of the windows, where the median
// would jump between the paces as their mix shifts. A window's p99
// moves with rare stalls instead, which the median window misses.
func (r *phaseResult) e2e() e2e {
	var p50, p99 []float64
	for _, w := range r.windows {
		p50 = append(p50, w.p50)
		p99 = append(p99, w.p99)
	}
	n := float64(max(r.attempted, 1))
	return e2e{rps: float64(r.ok) / r.seconds, p50: mean(p50), p99: median(p99),
		cpuPerReq: float64(r.cpuNs) / 1e3 / n, allocsPerReq: float64(r.mallocs) / n, gcPerKReq: float64(r.gcs) * 1000 / n}
}

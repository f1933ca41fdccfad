package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/obs"
)

// The generator lives here, not in the program: every URL and body is
// derived from the seed with the benchmark's own PRNG and rendered
// before timing, so no change to the program can alter the traffic and
// generator cost never enters a metric.

// prng is splitmix64: tiny, seedable, and independent of the repo's
// own internal/rng package.
type prng struct{ s uint64 }

func newPRNG(seed, stream uint64) *prng {
	return &prng{s: seed*0x9e3779b97f4a7c15 ^ (stream+1)*0xd1b54a32d192ed03}
}

func (r *prng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *prng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *prng) intn(n int) int { return int(r.next() % uint64(n)) }

// Endpoint classes, used for per-class accounting and the reconciliation
// table.
const (
	epBounds = iota
	epPredict
	epSimulate
	epIngest
	epGet
	numEndpoints
)

// numCompute counts the compute endpoints, bounds through simulate.
const numCompute = epSimulate + 1

var endpointNames = [numEndpoints]string{"bounds", "predict", "simulate", "ingest", "get"}

// op is one planned request. It holds no pointers: the URI is a slice
// of the plan's byte arena and the body an index into its body table,
// so a rendered plan can live outside the Go heap (see offHeap).
type op struct {
	off      uint32 // URI offset in plan.arena
	n        uint16 // URI length
	endpoint uint8
	node     uint8 // cluster member the client sends to
	check    bool  // the response is kept for the correctness check
	slot     int16 // session ops: session slot
	batches  int32 // session ops: batches the session holds once this op is served
	body     int32 // index into plan.bodies, -1 for none
}

// plan is a workload's rendered traffic: one op sequence per client.
type plan struct {
	workload string
	seed     uint64
	arena    []byte
	bodies   [][]byte
	clients  [][]op
	// cyclic plans (warm-mix, cluster-warm) repeat their sequence; the
	// others are sized to outlast the run and fail loudly if they do not.
	cyclic bool
	// warm is the untimed warm pass: URIs sent once, before timing.
	warm []op
	// session workload only: per event stream, the tallies of its first
	// n batches.
	streamPrefix [][]obs.UseCounts
	// cold-mix's bounds points (n, pd, pi, ps) for the direct kernel calls.
	kernelPoints [][4]float64
	// offHeapBytes is the size of the plan's off-heap copy.
	offHeapBytes int
}

func (p *plan) uri(o *op) string {
	return unsafe.String(&p.arena[o.off], int(o.n))
}

func (p *plan) add(uri string) (uint32, uint16) {
	if len(uri) > math.MaxUint16 || len(p.arena)+len(uri) > math.MaxUint32 {
		panic("perfbench: plan arena overflow")
	}
	off := uint32(len(p.arena))
	p.arena = append(p.arena, uri...)
	return off, uint16(len(uri))
}

// Workload sizing. The caps bound how many requests a client can issue
// per second of run; they sit well above the rates measured on a 2-vCPU
// host so that a faster program still finds enough distinct keys or
// session batches.
const (
	numClients      = 2
	warmPoints      = 16   // per endpoint, 48 keys in all
	warmCycle       = 8192 // ops per client before a warm plan repeats
	coldCapRPS      = 20000
	coldFill        = 1024 // distinct keys the warm pass puts in the LRU
	sessionSlots    = 256
	sessionBatches  = 8
	sessionEvents   = 256
	sessionSymbolN  = 4
	sessionStreams  = 2 // distinct event streams the sessions replay
	sessionCapOPS   = 8000
	clusterMembers  = 3
	checkOneIn      = 64  // share of ops whose response is kept for checking
	checkPerClient  = 128 // cap on kept responses per client
	kernelPointsLen = 64
)

func ff(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// buildPlan renders the traffic for one workload. maxSeconds is the
// longest the clients may run (ramp plus timed phase); non-cyclic plans
// are sized from it.
func buildPlan(workload string, seed uint64, maxSeconds float64) (*plan, error) {
	p := &plan{workload: workload, seed: seed}
	switch workload {
	case "warm-mix", "cluster-warm":
		p.buildWarm(workload == "cluster-warm")
	case "cold-mix":
		p.buildCold(int(math.Ceil(coldCapRPS * maxSeconds / numClients)))
	case "session-ingest":
		p.buildSessions(int(math.Ceil(sessionCapOPS * maxSeconds / numClients)))
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	p.kernelPoints = coldBoundsPoints(seed, kernelPointsLen)
	if err := p.moveOffHeap(); err != nil {
		return nil, err
	}
	return p, nil
}

// moveOffHeap moves the rendered URIs, bodies and op sequences out of
// the Go heap (see offheap.go): a cold-mix plan is tens of megabytes.
func (p *plan) moveOffHeap() error {
	var err error
	if p.arena, err = offHeap(p.arena, &p.offHeapBytes); err != nil {
		return err
	}
	var flat []byte
	for _, b := range p.bodies {
		flat = append(flat, b...)
	}
	if flat, err = offHeap(flat, &p.offHeapBytes); err != nil {
		return err
	}
	for i, b := range p.bodies {
		p.bodies[i], flat = flat[:len(b):len(b)], flat[len(b):]
	}
	for c := range p.clients {
		if p.clients[c], err = offHeap(p.clients[c], &p.offHeapBytes); err != nil {
			return err
		}
	}
	return nil
}

// warmKeys renders the 16 bounds, 16 predict and 16 simulate points of
// warm-mix. A point's index fixes its shape (n, protocol, options), so
// every seed costs about the same to warm and to serve; the seed
// jitters the channel parameters. pd steps by 0.02 per point, so the
// keys are distinct.
func warmKeys(seed uint64) [numCompute][]string {
	r := newPRNG(seed, 1)
	pd := func(i int) string { return ff(0.02+0.02*float64(i)+0.01*r.float(), 4) }
	var keys [numCompute][]string
	for i := 0; i < warmPoints; i++ {
		q := "/v1/bounds?n=" + strconv.Itoa(2+i%5) + "&pd=" + pd(i) + "&pi=" + ff(0.1*r.float(), 4) + "&ps=" + ff(0.1*r.float(), 4)
		if i%4 == 0 {
			q += "&ba=1"
		}
		keys[epBounds] = append(keys[epBounds], q)
	}
	protos := []string{"arq", "counter", "delayed"}
	for i := 0; i < warmPoints; i++ {
		proto := protos[i%len(protos)]
		pi := 0.0
		if proto == "counter" {
			pi = 0.1 * r.float()
		}
		q := "/v1/predict?proto=" + proto + "&n=" + strconv.Itoa(2+i%5) + "&pd=" + pd(i) + "&pi=" + ff(pi, 4) + "&delay=" + strconv.Itoa(1+i%8)
		keys[epPredict] = append(keys[epPredict], q)
	}
	simProtos := []string{"arq", "counter", "naive", "delayed"}
	for i := 0; i < warmPoints; i++ {
		proto := simProtos[i%len(simProtos)]
		pi := 0.0
		if proto == "counter" || proto == "naive" {
			pi = 0.05 * r.float()
		}
		q := "/v1/simulate?proto=" + proto + "&n=" + strconv.Itoa(2+i%3) + "&pd=" + pd(i) + "&pi=" + ff(pi, 4) +
			"&symbols=1000&seed=" + strconv.Itoa(1+r.intn(1000))
		keys[epSimulate] = append(keys[epSimulate], q)
	}
	return keys
}

// pickMix draws an endpoint with the given cumulative weights in
// percent.
func pickMix(r *prng, bounds, predict int) int {
	x := r.intn(100)
	switch {
	case x < bounds:
		return epBounds
	case x < bounds+predict:
		return epPredict
	}
	return epSimulate
}

func (p *plan) buildWarm(cluster bool) {
	keys := warmKeys(p.seed)
	var table [numCompute][]op
	for ep := range keys {
		for _, k := range keys[ep] {
			off, n := p.add(k)
			table[ep] = append(table[ep], op{off: off, n: n, endpoint: uint8(ep), body: -1})
		}
	}
	// The warm pass sends every key once, spread over the members.
	for ep := range table {
		for _, o := range table[ep] {
			if cluster {
				o.node = uint8(len(p.warm) % clusterMembers)
			}
			p.warm = append(p.warm, o)
		}
	}
	p.cyclic = true
	for c := 0; c < numClients; c++ {
		r := newPRNG(p.seed, 100+uint64(c))
		seq := make([]op, warmCycle)
		for i := range seq {
			ep := pickMix(r, 70, 20)
			o := table[ep][r.intn(warmPoints)]
			if cluster {
				o.node = uint8(r.intn(clusterMembers))
			}
			o.check = r.intn(checkOneIn) == 0
			seq[i] = o
		}
		p.clients = append(p.clients, seq)
	}
}

// frac is x mod 1 for x >= 0.
func frac(x float64) float64 { return x - math.Floor(x) }

// coldBoundsPoint draws the i-th distinct bounds point of cold-mix: pd
// walks an irrational rotation, so no two indices share a pd at 9
// decimals for any plan this benchmark renders.
func coldBoundsPoint(r *prng, base float64, i int) (pd, pi, ps float64) {
	pd = 0.02 + 0.3*frac(base+float64(i)*math.Phi)
	pd = math.Round(pd*1e9) / 1e9
	pi = math.Round(0.2*r.float()*1e6) / 1e6
	ps = math.Round(0.1*r.float()*1e6) / 1e6
	return pd, pi, ps
}

// coldBoundsPoints returns the first k bounds points of cold-mix's timed
// traffic, for the direct kernel measurements.
func coldBoundsPoints(seed uint64, k int) [][4]float64 {
	r := newPRNG(seed, 7)
	base := newPRNG(seed, 8).float()
	out := make([][4]float64, k)
	for i := range out {
		pd, pi, ps := coldBoundsPoint(r, base, i)
		out[i] = [4]float64{6, pd, pi, ps}
	}
	return out
}

func (p *plan) buildCold(perClient int) {
	// Streams: 7/8 drive the bounds points (shared with
	// coldBoundsPoints), 9 the predict points, 10 the simulate points,
	// 11 the mix.
	rb, base := newPRNG(p.seed, 7), newPRNG(p.seed, 8).float()
	rp, rs, mix := newPRNG(p.seed, 9), newPRNG(p.seed, 10), newPRNG(p.seed, 11)
	var nb, np, ns int
	render := func(ep int) string {
		switch ep {
		case epBounds:
			pd, pi, ps := coldBoundsPoint(rb, base, nb)
			nb++
			return "/v1/bounds?n=6&ba=1&pd=" + ff(pd, 9) + "&pi=" + ff(pi, 6) + "&ps=" + ff(ps, 6)
		case epPredict:
			pd := math.Round((0.02+0.4*frac(base+0.5+float64(np)*math.Phi))*1e9) / 1e9
			np++
			return "/v1/predict?proto=delayed&n=" + strconv.Itoa(2+rp.intn(7)) + "&pd=" + ff(pd, 9) + "&delay=" + strconv.Itoa(1+rp.intn(8))
		default:
			ns++
			return "/v1/simulate?proto=counter&symbols=2000&n=" + strconv.Itoa(2+rs.intn(3)) + "&pd=" + ff(0.05+0.2*rs.float(), 4) +
				"&pi=" + ff(0.05*rs.float(), 4) + "&seed=" + strconv.FormatUint(p.seed%1000000*10000000+uint64(ns), 10)
		}
	}
	// The warm fill: coldFill distinct keys outside the timed key space
	// (n=7 for bounds, n=9 for predict, seed parameter 0 for simulate),
	// so every timed insert evicts. Its 50/30/20 mix is fixed by index,
	// so every seed costs about the same to warm.
	for i := 0; i < coldFill; i++ {
		pd := ff(0.02+0.3*frac(base+float64(i)*math.Phi), 9)
		ep := epSimulate
		switch {
		case i%10 < 5:
			ep = epBounds
		case i%10 < 8:
			ep = epPredict
		}
		var uri string
		switch ep {
		case epBounds:
			uri = "/v1/bounds?n=7&ba=1&pd=" + pd
		case epPredict:
			uri = "/v1/predict?proto=delayed&n=9&pd=" + pd
		default:
			uri = "/v1/simulate?proto=counter&symbols=2000&seed=0&pd=" + pd
		}
		off, n := p.add(uri)
		p.warm = append(p.warm, op{off: off, n: n, endpoint: uint8(ep), body: -1})
	}
	chk := newPRNG(p.seed, 13)
	p.clients = make([][]op, numClients)
	for i := 0; i < perClient*numClients; i++ {
		ep := pickMix(mix, 50, 30)
		off, n := p.add(render(ep))
		c := i % numClients
		p.clients[c] = append(p.clients[c], op{off: off, n: n, endpoint: uint8(ep), body: -1, check: chk.intn(checkOneIn) == 0})
	}
}

// sessionBatch renders batch b of an event stream: 256 events with
// use indices b·256+1 .. b·256+256, drawn at the stream's plant
// parameters. It returns the NDJSON body and the batch's event tallies.
func sessionBatch(r *prng, pd, pi, ps float64, b int) ([]byte, obs.UseCounts) {
	var c obs.UseCounts
	buf := make([]byte, 0, sessionEvents*32)
	for e := 0; e < sessionEvents; e++ {
		use := int64(b*sessionEvents + e + 1)
		sent := r.intn(1 << sessionSymbolN)
		buf = append(buf, `{"u":`...)
		buf = strconv.AppendInt(buf, use, 10)
		switch x := r.float(); {
		case x < pd:
			c.Deletes++
			buf = append(buf, `,"k":"D","s":`...)
			buf = strconv.AppendInt(buf, int64(sent), 10)
		case x < pd+pi:
			c.Inserts++
			buf = append(buf, `,"k":"I","r":`...)
			buf = strconv.AppendInt(buf, int64(r.intn(1<<sessionSymbolN)), 10)
		case r.float() < ps:
			c.Substitutes++
			recv := (sent + 1 + r.intn(1<<sessionSymbolN-1)) % (1 << sessionSymbolN)
			buf = append(buf, `,"k":"S","s":`...)
			buf = strconv.AppendInt(buf, int64(sent), 10)
			buf = append(buf, `,"r":`...)
			buf = strconv.AppendInt(buf, int64(recv), 10)
		default:
			c.Transmits++
			buf = append(buf, `,"k":"T","s":`...)
			buf = strconv.AppendInt(buf, int64(sent), 10)
			buf = append(buf, `,"r":`...)
			buf = strconv.AppendInt(buf, int64(sent), 10)
		}
		buf = append(buf, "}\n"...)
	}
	return buf, c
}

// sessionStream renders the first batches of event stream k, each at
// the stream's seeded plant parameters, with prefix[n] the tallies of
// the first n batches. A longer rendering extends a shorter one.
func sessionStream(seed uint64, k, batches int) (bodies [][]byte, prefix []obs.UseCounts) {
	r := newPRNG(seed, 1000+uint64(k))
	pd, pi, ps := 0.02+0.18*r.float(), 0.1*r.float(), 0.1*r.float()
	prefix = make([]obs.UseCounts, batches+1)
	for b := 0; b < batches; b++ {
		body, c := sessionBatch(r, pd, pi, ps, b)
		bodies = append(bodies, body)
		prefix[b+1] = prefix[b]
		prefix[b+1].Add(c)
	}
	return bodies, prefix
}

func sessionID(slot int) string { return "s" + strconv.Itoa(slot) }

// streamOf is the event stream slot s replays: both clients get both.
func streamOf(slot int) int { return slot / numClients % sessionStreams }

// buildSessions renders session-ingest. Slot s is one session, owned
// by client s % numClients, which visits its slots round-robin. Each
// visit POSTs the slot's next batch of its event stream, except that
// every ninth visit is a GET of the session; slot s's first GET comes
// after 8 - s%8 POSTs, so POSTs and GETs interleave evenly. The
// sessions live for the whole run, so what the run leaves in the heap
// does not grow with throughput. Use indices rise strictly within every
// session and no session is shared between clients: a 409 is
// impossible by construction.
func (p *plan) buildSessions(perClient int) {
	slotsPerClient := sessionSlots / numClients
	batches := perClient/slotsPerClient + 1
	p.streamPrefix = make([][]obs.UseCounts, sessionStreams)
	for k := 0; k < sessionStreams; k++ {
		var bodies [][]byte
		bodies, p.streamPrefix[k] = sessionStream(p.seed, k, batches)
		p.bodies = append(p.bodies, bodies...)
	}
	chk := newPRNG(p.seed, 14)
	p.clients = make([][]op, numClients)
	visits := make([]int, sessionSlots)
	posted := make([]int, sessionSlots)
	var post, get [sessionSlots]op
	for s := 0; s < sessionSlots; s++ {
		post[s].off, post[s].n = p.add("/v1/sessions/" + sessionID(s) + "/events")
		get[s].off, get[s].n = p.add("/v1/sessions/" + sessionID(s))
	}
	for c := 0; c < numClients; c++ {
		for i := 0; i < perClient; i++ {
			s := c + numClients*(i%slotsPerClient)
			v := visits[s]
			visits[s]++
			o := post[s]
			o.endpoint, o.body = epIngest, int32(streamOf(s)*batches+posted[s])
			if (v+s%sessionBatches)%(sessionBatches+1) == sessionBatches {
				o = get[s]
				o.endpoint, o.body = epGet, -1
			} else {
				posted[s]++
			}
			o.slot, o.batches, o.check = int16(s), int32(posted[s]), chk.intn(checkOneIn) == 0
			p.clients[c] = append(p.clients[c], o)
		}
	}
	// The warm pass: one batch into, and one read of, a session per
	// client outside the plan's ID space.
	for c := 0; c < numClients; c++ {
		id := "warm" + strconv.Itoa(c)
		off, n := p.add("/v1/sessions/" + id + "/events")
		p.warm = append(p.warm, op{off: off, n: n, endpoint: epIngest, body: 0})
		off, n = p.add("/v1/sessions/" + id)
		p.warm = append(p.warm, op{off: off, n: n, endpoint: epGet, body: -1})
	}
}

// expectedCounts is the tally slot's session has after its first
// batches batches.
func (p *plan) expectedCounts(slot, batches int) obs.UseCounts {
	return p.streamPrefix[streamOf(slot)][batches]
}

// digest is a hash of everything the plan sends, so two runs can show
// they replayed the same traffic.
func (p *plan) digest() string {
	h := sha256.New()
	var b [8]byte
	write := func(o *op) {
		h.Write([]byte(p.uri(o)))
		binary.LittleEndian.PutUint64(b[:], uint64(o.node)<<8|uint64(o.endpoint))
		h.Write(b[:])
		if o.body >= 0 {
			h.Write(p.bodies[o.body])
		}
	}
	h.Write([]byte(p.workload))
	for i := range p.warm {
		write(&p.warm[i])
	}
	for c := range p.clients {
		binary.LittleEndian.PutUint64(b[:], uint64(len(p.clients[c])))
		h.Write(b[:])
		for i := range p.clients[c] {
			write(&p.clients[c][i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

package capserver

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// freshServer is a one-worker server with no background goroutines
// beyond its pool, shut down when the test ends.
func freshServer(t testing.TB) *Server {
	srv := New(Config{Workers: 1, SessionSweep: -1})
	t.Cleanup(func() { _ = srv.Shutdown(context.Background()) })
	return srv
}

// serve answers one request through the server's handler.
func serve(srv *Server, method, target, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// keyAndBody canonicalizes a GET and serves it on a server of its own,
// so the body is computed for this spelling and cannot come from a
// cache entry another spelling filled.
func keyAndBody(t testing.TB, target string) (string, []byte) {
	t.Helper()
	srv := freshServer(t)
	key, ok := srv.Canonicalize(httptest.NewRequest(http.MethodGet, target, nil))
	if !ok {
		t.Fatalf("%s: Canonicalize rejected a valid query", target)
	}
	code, body := serve(srv, http.MethodGet, target, "")
	if code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", target, code, body)
	}
	return key, body
}

// TestNegativeZeroCanonicalizes pins that a zero spelled with a minus
// sign shares the cache key and the response body of the plain zero,
// on every float parameter and through batch points.
func TestNegativeZeroCanonicalizes(t *testing.T) {
	for _, spellings := range [][]string{
		{"/v1/bounds?pd=0", "/v1/bounds?pd=-0", "/v1/bounds?pd=0.0", "/v1/bounds?pd=-0.0"},
		{"/v1/bounds?pd=0.1&sync_capacity=0", "/v1/bounds?pd=0.1&sync_capacity=-0"},
		{"/v1/bounds?pi=0&ps=0", "/v1/bounds?pi=-0&ps=-0"},
		{"/v1/predict?proto=arq&pd=0", "/v1/predict?proto=arq&pd=-0"},
		{"/v1/simulate?proto=naive&pd=0&symbols=64", "/v1/simulate?proto=naive&pd=-0&symbols=64"},
	} {
		key, body := keyAndBody(t, spellings[0])
		for _, s := range spellings[1:] {
			k, b := keyAndBody(t, s)
			if k != key {
				t.Errorf("%s: key %q, want %q", s, k, key)
			}
			if !bytes.Equal(b, body) {
				t.Errorf("%s: body %s, want %s", s, b, body)
			}
		}
	}

	_, want := keyAndBody(t, "/v1/bounds?pd=0")
	code, raw := serve(freshServer(t), http.MethodPost, "/v1/bounds:batch", `{"points":[{"pd":-0},{"pd":0}]}`)
	var resp BatchResponse
	if err := json.Unmarshal(raw, &resp); err != nil || code != http.StatusOK {
		t.Fatalf("batch: status %d, %v: %s", code, err, raw)
	}
	for i, r := range resp.Results {
		if string(r.Result) != string(bytes.TrimSpace(want)) {
			t.Errorf("batch point %d: %s, want %s", i, r.Result, want)
		}
	}
}

// fuzzParam is one query parameter of a generated point: spellings
// are equivalent renderings of one value, optional marks a value equal
// to the builder's default (so the parameter may be left out), and bad
// are renderings the builder must reject. escaped marks spellings that
// are already query-escaped.
type fuzzParam struct {
	name      string
	spellings []string
	optional  bool
	bad       []string
	escaped   bool
}

// fuzzPoint is a generated query for one endpoint.
type fuzzPoint struct {
	path   string
	params []fuzzParam
}

// spell renders the point with a random spelling of every parameter,
// optional ones left out at random, in a random order.
func (p fuzzPoint) spell(r *rand.Rand) string {
	var parts []string
	for _, q := range p.params {
		if q.optional && r.Intn(2) == 0 {
			continue
		}
		v := q.spellings[r.Intn(len(q.spellings))]
		if !q.escaped {
			v = url.QueryEscape(v)
		}
		parts = append(parts, q.name+"="+v)
	}
	r.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
	return p.path + "?" + strings.Join(parts, "&")
}

// corrupt renders the point with one parameter replaced by one of its
// bad spellings.
func (p fuzzPoint) corrupt(r *rand.Rand) string {
	var withBad []int
	for i, q := range p.params {
		if len(q.bad) > 0 {
			withBad = append(withBad, i)
		}
	}
	i := withBad[r.Intn(len(withBad))]
	q := p.params
	p.params = append([]fuzzParam(nil), q...)
	p.params[i].spellings = q[i].bad
	p.params[i].optional = false
	return p.spell(r)
}

func floatSpellings(v float64) []string {
	f := strconv.FormatFloat(v, 'f', -1, 64)
	e := strconv.FormatFloat(v, 'e', -1, 64)
	out := []string{f, e, strings.ToUpper(e), "00" + f, "+" + f, strconv.FormatFloat(v, 'x', -1, 64)}
	if strings.Contains(f, ".") {
		out = append(out, f+"00")
	} else {
		out = append(out, f+".0")
	}
	if strings.HasPrefix(f, "0.") {
		out = append(out, f[1:])
	}
	if v == 0 {
		out = append(out, "-0", "-0.0", "0e7")
	}
	return out
}

func intSpellings(v int) []string {
	s := strconv.Itoa(v)
	return []string{s, "0" + s, "00" + s, "+" + s}
}

func boolSpellings(v bool) []string {
	if v {
		return []string{"true", "1", "t", "T", "TRUE", "True"}
	}
	return []string{"false", "0", "f", "F", "FALSE", "False"}
}

func pick[T any](r *rand.Rand, vs ...T) T { return vs[r.Intn(len(vs))] }

// Bad spellings by parameter type.
var (
	badFloat = []string{"abc", "NaN", "Inf", "-Inf", "1e400", "0.2.1", "0,2"}
	badProb  = append([]string{"1.5", "-0.1"}, badFloat...)
	badBool  = []string{"maybe", "yes", "2"}
	badSeed  = []string{"-1", "0x10", "1.0", "seed"}
)

func floatArg(name string, v, def float64, bad []string) fuzzParam {
	return fuzzParam{name: name, spellings: floatSpellings(v), optional: v == def, bad: bad}
}

// intArg is an integer parameter whose valid range ends at hi.
func intArg(name string, v, def, hi int) fuzzParam {
	bad := []string{"x", "4.0", "0x4", "-1", strconv.Itoa(hi + 1)}
	return fuzzParam{name: name, spellings: intSpellings(v), optional: v == def, bad: bad}
}

func seedArg(v uint64) fuzzParam {
	s := strconv.FormatUint(v, 10)
	return fuzzParam{name: "seed", spellings: []string{s, "0" + s, "00" + s}, optional: v == 1, bad: badSeed}
}

// cheapExperiments are the registry ids that run in a few milliseconds
// at the sizes experimentsPoint asks for.
var cheapExperiments = []string{"E1", "E2", "E3", "E4", "E5", "E7", "E8", "E9", "E10", "E13"}

// idSpelling renders an experiment id set as an escaped id list in a
// random order, with duplicates, space padding, empty parts and commas
// escaped as %2C.
func idSpelling(r *rand.Rand, ids []string) string {
	list := append([]string(nil), ids...)
	for i := r.Intn(3); i > 0; i-- {
		list = append(list, ids[r.Intn(len(ids))])
	}
	for i := r.Intn(3); i > 0; i-- {
		list = append(list, "")
	}
	r.Shuffle(len(list), func(i, j int) { list[i], list[j] = list[j], list[i] })
	var b strings.Builder
	for i, id := range list {
		if i > 0 {
			b.WriteString(pick(r, ",", ",", "%2C", "%2c"))
		}
		b.WriteString(pick(r, "", "", "+", "%20") + id + pick(r, "", "", "+", "%20"))
	}
	return b.String()
}

// experimentsPoint draws a run of one to three cheap experiments.
func experimentsPoint(r *rand.Rand) fuzzPoint {
	pool := append([]string(nil), cheapExperiments...)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	ids := pool[:1+r.Intn(3)]
	id := fuzzParam{name: "id", escaped: true,
		bad: []string{"E99", "E1%2CE99", "e1", "E1%3BE2", "%2C", "+", "%2C+%2C"}}
	for i := 0; i < 6; i++ {
		id.spellings = append(id.spellings, idSpelling(r, ids))
	}
	seed := seedArg(uint64(1 + r.Intn(9)))
	if seed.optional {
		// Seed 0 runs as the default seed 1.
		seed.spellings = append(seed.spellings, "0", "00")
	}
	return fuzzPoint{path: "/v1/experiments", params: []fuzzParam{
		id,
		seed,
		intArg("symbols", pick(r, 100, 200), 20000, 200000),
		intArg("coded_symbols", pick(r, 5, 10), 200, 5000),
		intArg("quanta", pick(r, 500, 1000), 200000, 2_000_000),
	}}
}

// randomOkPoint draws a valid point on one of the five cacheable
// endpoints from parameter ranges that compute in a few milliseconds
// at most.
func randomOkPoint(r *rand.Rand) fuzzPoint {
	pd := pick(r, 0, 0.05, 0.1, 0.2, 0.25, 0.5)
	switch r.Intn(4) {
	case 0:
		n := 1 + r.Intn(6)
		ba := r.Intn(2) == 0
		p := fuzzPoint{path: "/v1/bounds", params: []fuzzParam{
			intArg("n", n, 4, 16),
			floatArg("pd", pd, 0, badProb),
			floatArg("pi", pick(r, 0, 0.05, 0.1, 0.2), 0, badProb),
			floatArg("ps", pick(r, 0, 0.02, 0.1), 0, badProb),
			intArg("exact_n", r.Intn(5), 0, 12),
			intArg("mc_n", r.Intn(5), 0, 20),
			intArg("mc_samples", pick(r, 100, 500), 20000, 5_000_000),
			seedArg(uint64(1 + r.Intn(9))),
			{name: "ba", spellings: boolSpellings(ba), optional: !ba, bad: badBool},
			floatArg("ba_tol", pick(r, 1e-9, 1e-6), 1e-9, append([]string{"0", "-1e-9"}, badFloat...)),
			intArg("ba_iters", pick(r, 2000, 500), 2000, 100000),
		}}
		if r.Intn(2) == 0 {
			sc := pick(r, 0, 0.5, 1.5)
			p.params = append(p.params, fuzzParam{name: "sync_capacity", spellings: floatSpellings(sc),
				bad: append([]string{"-1"}, badFloat...)})
		}
		return p
	case 1:
		proto := pick(r, "arq", "counter", "delayed")
		pi := 0.0
		if proto == "counter" {
			pi = pick(r, 0, 0.05, 0.1)
		}
		return fuzzPoint{path: "/v1/predict", params: []fuzzParam{
			{name: "proto", spellings: []string{proto}, bad: []string{"bogus", "ARQ", "naive", ""}},
			intArg("n", 1+r.Intn(6), 4, 16),
			floatArg("pd", pd, 0, badProb),
			floatArg("pi", pi, 0, badProb),
			intArg("delay", r.Intn(5), 1, 64),
		}}
	case 2:
		return experimentsPoint(r)
	default:
		path := pick(r, "/v1/simulate", "/v1/trace")
		proto := pick(r, "arq", "counter", "naive", "delayed")
		pi := 0.0
		if proto == "counter" || proto == "naive" {
			pi = pick(r, 0, 0.05)
		}
		inject := fuzzParam{name: "inject", spellings: []string{""}, optional: true, bad: []string{"bogus=0.1", "drift=2", "drift"}}
		if r.Intn(2) == 0 {
			inject = fuzzParam{name: "inject", bad: inject.bad,
				spellings: []string{"drift=0.25", "DRIFT=0.25", " drift = .25", "drift=2.5e-1;", "drift=0.250,"}}
		}
		p := fuzzPoint{path: path, params: []fuzzParam{
			{name: "proto", spellings: []string{proto}, bad: []string{"bogus", "Naive", ""}},
			intArg("n", 1+r.Intn(4), 4, 16),
			floatArg("pd", pd, 0.2, badProb),
			floatArg("pi", pi, 0, badProb),
			intArg("delay", r.Intn(4), 1, 64),
			{name: "symbols", spellings: intSpellings(pick(r, 50, 200, 500)), bad: []string{"0", "300000", "x"}},
			seedArg(uint64(1 + r.Intn(9))),
			inject,
		}}
		if path == "/v1/trace" {
			// /v1/simulate takes no ps, so only /v1/trace may reject one.
			p.params = append(p.params, floatArg("ps", pick(r, 0, 0.02, 0.1), 0, badProb))
		}
		return p
	}
}

// counters is every counter a rejected request must leave alone: the
// computes per endpoint, the cache and store counters, cached entries
// and the pool queue.
func counters(s *Server) [11]int64 {
	m := s.metrics
	return [11]int64{
		m.ComputeCalls("bounds"), m.ComputeCalls("predict"), m.ComputeCalls("simulate"), m.ComputeCalls("trace"),
		m.ComputeCalls("experiments"),
		m.CacheHits(), m.misses.Value(), m.CacheShared(), m.StoreHits(),
		int64(s.cache.stats().Entries), int64(s.pool.depth()),
	}
}

// FuzzCanonicalize checks the cache key's soundness over valid and
// invalid queries on /v1/bounds, /v1/predict, /v1/simulate, /v1/trace
// and /v1/experiments runs. The seed drives generators in the ok/bad
// style: randomOkPoint draws a point and two independent cosmetic
// spellings of it (float forms, leading zeros, order, defaulted vs
// explicit, and for experiment id lists order, duplicates, spaces,
// empty parts and escaped commas), which must share one key,
// byte-identical bodies and, served on one server, one compute;
// corrupt breaks one parameter, which must be rejected with a 400 that
// moves neither the cache nor the pool. raw is also tried as the query
// of every endpoint: when Canonicalize rejects it, the handler must
// too, without side effects.
func FuzzCanonicalize(f *testing.F) {
	f.Add(uint64(1), "pd=0.2")
	f.Add(uint64(2), "pd=-0&n=04")
	f.Add(uint64(3), "proto=arq&pi=0.1")
	f.Add(uint64(4), "n=4&pd=NaN")
	f.Add(uint64(5), "proto=naive&symbols=1e3&inject=drift%3D0.5")
	f.Add(uint64(6), "proto=counter&ps=-0&pi=.05")
	f.Add(uint64(7), "proto=counter&ps=1.5")
	f.Fuzz(func(t *testing.T, seed uint64, raw string) {
		r := rand.New(rand.NewSource(int64(seed)))
		p := randomOkPoint(r)
		a, b := p.spell(r), p.spell(r)
		ka, bodyA := keyAndBody(t, a)
		kb, bodyB := keyAndBody(t, b)
		if ka != kb {
			t.Fatalf("spellings of one point canonicalize apart:\n%s -> %s\n%s -> %s", a, ka, b, kb)
		}
		if !bytes.Equal(bodyA, bodyB) {
			t.Fatalf("one key, two bodies for %s:\n%s: %s\n%s: %s", ka, a, bodyA, b, bodyB)
		}

		srv := freshServer(t)
		for _, target := range []string{a, b} {
			if code, body := serve(srv, http.MethodGet, target, ""); code != http.StatusOK || !bytes.Equal(body, bodyA) {
				t.Fatalf("%s on a shared server: status %d, body %s, want %s", target, code, body, bodyA)
			}
		}
		if n := srv.metrics.ComputeCalls(strings.TrimPrefix(p.path, "/v1/")); n != 1 {
			t.Fatalf("two spellings of %s computed %d times on one server, want 1", ka, n)
		}
		// rejected reports whether Canonicalize rejects the request and,
		// when it does, that the handler answers 400 without side effects.
		rejected := func(target string, req *http.Request) bool {
			if _, ok := srv.Canonicalize(req); ok {
				return false
			}
			before := counters(srv)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("%s: Canonicalize rejects it but the handler answers %d: %s", target, rec.Code, rec.Body)
			}
			if after := counters(srv); after != before {
				t.Fatalf("%s: rejected query moved counters %v -> %v", target, before, after)
			}
			return true
		}
		if bad := p.corrupt(r); !rejected(bad, httptest.NewRequest(http.MethodGet, bad, nil)) {
			t.Fatalf("%s: corrupted query canonicalized", bad)
		}
		for _, path := range []string{"/v1/bounds", "/v1/predict", "/v1/simulate", "/v1/trace", "/v1/experiments"} {
			if vals, _ := url.ParseQuery(raw); path == "/v1/experiments" && vals.Get("id") == "" {
				continue // the catalog: answered directly, never cached
			}
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = raw
			rejected(path+"?"+raw, req)
		}
	})
}

// TestExperimentIDsCanonicalize pins that spellings of one experiment
// batch that differ in id order or repetition share one cache key and
// so one compute: experiments.Run selects in registry order without
// duplicates, so their bodies are byte-identical.
func TestExperimentIDsCanonicalize(t *testing.T) {
	const params = "&symbols=500&quanta=2000&coded_symbols=20"
	srv := freshServer(t)
	var key string
	var body []byte
	for i, ids := range []string{"E1,E2", "E2,E1", "E1,E1,E2", " E2 ,E1,,E2"} {
		target := "/v1/experiments?id=" + url.QueryEscape(ids) + params
		k, ok := srv.Canonicalize(httptest.NewRequest(http.MethodGet, target, nil))
		if !ok {
			t.Fatalf("%s: Canonicalize rejected a valid query", target)
		}
		code, b := serve(srv, http.MethodGet, target, "")
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", target, code, b)
		}
		if i == 0 {
			key, body = k, b
			if want := "experiments?id=E1,E2&seed=1&symbols=500&coded=20&quanta=2000"; k != want {
				t.Errorf("canonical spelling keyed %q, want %q", k, want)
			}
			continue
		}
		if k != key {
			t.Errorf("%s: key %q, want %q", ids, k, key)
		}
		if !bytes.Equal(b, body) {
			t.Errorf("%s: body differs from E1,E2's", ids)
		}
	}
	if n := srv.metrics.ComputeCalls("experiments"); n != 1 {
		t.Errorf("four spellings of one batch computed %d times, want 1", n)
	}
}

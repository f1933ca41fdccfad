package capserver

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// nopResponseWriter discards the response without allocating, so an
// allocation count charges only the server.
type nopResponseWriter struct {
	h    http.Header
	code int
}

func (w *nopResponseWriter) Header() http.Header         { return w.h }
func (w *nopResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopResponseWriter) WriteHeader(code int)        { w.code = code }

// TestCachedHitAllocs pins the cost of a cache hit: parsing the raw
// query, appending the canonical key, the LRU lookup, the response
// headers and the metrics together make at most maxHitAllocs heap
// allocations on /v1/bounds, /v1/predict and /v1/simulate. The
// per-request deadline and the compute closure belong to the miss path
// only.
func TestCachedHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const maxHitAllocs = 3
	h := freshServer(t).Handler()
	for _, target := range []string{
		"/v1/bounds?n=4&pd=0.2&pi=0.05&ps=0.01&ba=1",
		"/v1/predict?proto=delayed&n=3&pd=0.1&delay=2",
		"/v1/simulate?proto=counter&n=3&pd=0.1&pi=0.02&symbols=500&seed=3",
	} {
		req := httptest.NewRequest(http.MethodGet, target, nil)
		w := &nopResponseWriter{h: make(http.Header)}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			t.Fatalf("%s: warm-up answered %d", target, w.code)
		}
		allocs := testing.AllocsPerRun(200, func() { h.ServeHTTP(w, req) })
		if got := w.h.Get(CacheHeader); w.code != http.StatusOK || got != "hit" {
			t.Fatalf("%s: answered %d from %q, want a 200 hit", target, w.code, got)
		}
		t.Logf("%s: %.1f allocations per hit", target, allocs)
		if allocs > maxHitAllocs {
			t.Errorf("%s: a cache hit allocates %.1f objects, want at most %d", target, allocs, maxHitAllocs)
		}
	}
}

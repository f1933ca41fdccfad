package capserver

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strings"
	"testing"

	"repro/internal/channel"
	"repro/internal/experiments"
)

// FuzzQueryGet checks queryValues.Get against the standard library:
// for any raw query and any name it must return what
// url.ParseQuery(raw).Get(name) returns, errors included (ParseQuery
// skips a bad pair and keeps the rest).
func FuzzQueryGet(f *testing.F) {
	for _, seed := range [][2]string{
		{"pd=0.2", "pd"},
		{"", ""},
		{"=v", ""},
		{"a=1&a=2", "a"},
		{"a=1;b=2&a=3", "a"},
		{"a;=1&a=2", "a"},
		{"a=%zz&a=2", "a"},
		{"a%=1&a=2", "a"},
		{"p%64=0.1", "pd"},
		{"pd=0.1&p%64=0.2", "pd"},
		{"a+b=c+d", "a b"},
		{"a=%2B1", "a"},
		{"&&a&=&a=x", "a"},
		{"a", "a"},
		{"inject=drift%3D0.5%3Bstuck%3D0.1", "inject"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, raw, name string) {
		vals, _ := url.ParseQuery(raw)
		if got, want := queryValues(raw).Get(name), vals.Get(name); got != want {
			t.Fatalf("Get(%q) of %q = %q, url.ParseQuery gives %q", name, raw, got, want)
		}
	})
}

// randomKeyFloat draws a finite float that exercises every branch of
// the shortest 'g' spelling: zero, integers, exponent forms at both
// ends, and arbitrary bit patterns.
func randomKeyFloat(r *rand.Rand) float64 {
	switch r.Intn(4) {
	case 0:
		return pick(r, 0, 1, 0.2, 1e-5, 1e-4, 123456, 1e20, 1e21, 2.5e-300)
	case 1:
		return float64(r.Intn(1000)) / 1000
	case 2:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
	}
	for {
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
	}
}

// TestAppendKeyMatchesFmt pins the appended cache keys to the fmt
// spellings they replaced (%d, %v, %t, %s). Durable store entries on
// disk are keyed by these strings, so a key must not change spelling.
func TestAppendKeyMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	fl := func() float64 { return randomKeyFloat(r) }
	for i := 0; i < 2000; i++ {
		b := boundsQuery{
			params: channel.Params{N: r.Intn(17), Pd: fl(), Pi: fl(), Ps: fl()},
			exactN: r.Intn(13), mcN: r.Intn(21), mcSamples: r.Intn(5_000_001), seed: r.Uint64(),
			ba: r.Intn(2) == 0, baTol: fl(), baIters: r.Intn(100001), syncCapSet: r.Intn(2) == 0, syncCap: fl(),
		}
		want := "bounds?" + fmt.Sprintf("n=%d&pd=%v&pi=%v&ps=%v&exact_n=%d&mc_n=%d&mc_samples=%d&seed=%d&ba=%t&ba_tol=%v&ba_iters=%d&sync_set=%t&sync=%v",
			b.params.N, b.params.Pd, b.params.Pi, b.params.Ps, b.exactN, b.mcN, b.mcSamples, b.seed, b.ba, b.baTol, b.baIters, b.syncCapSet, b.syncCap)
		if got := string(b.appendKey(nil)); got != want {
			t.Fatalf("bounds key %q, want %q", got, want)
		}

		p := predictQuery{proto: pick(r, "arq", "counter", "delayed"), params: channel.Params{N: r.Intn(17), Pd: fl(), Pi: fl()}, delay: r.Intn(65)}
		want = "predict?" + fmt.Sprintf("proto=%s&n=%d&pd=%v&pi=%v&delay=%d", p.proto, p.params.N, p.params.Pd, p.params.Pi, p.delay)
		if got := string(p.appendKey(nil)); got != want {
			t.Fatalf("predict key %q, want %q", got, want)
		}

		s := supervisedQuery{proto: pick(r, "arq", "naive"), params: channel.Params{N: r.Intn(17), Pd: fl(), Pi: fl(), Ps: fl()},
			delay: r.Intn(65), symbols: r.Intn(200001), seed: r.Uint64(), inject: pick(r, "", "drift=0.25", "outage=0.8;stuck=0.1")}
		sp := s.params
		want = "simulate?" + fmt.Sprintf("proto=%s&n=%d&pd=%v&pi=%v&delay=%d&symbols=%d&seed=%d&inject=%s",
			s.proto, sp.N, sp.Pd, sp.Pi, s.delay, s.symbols, s.seed, s.inject)
		if got := string(s.appendKey(nil)); got != want {
			t.Fatalf("simulate key %q, want %q", got, want)
		}
		s.traced = true
		want = "trace?" + fmt.Sprintf("proto=%s&n=%d&pd=%v&pi=%v&ps=%v&delay=%d&symbols=%d&seed=%d&inject=%s",
			s.proto, sp.N, sp.Pd, sp.Pi, sp.Ps, s.delay, s.symbols, s.seed, s.inject)
		if got := string(s.appendKey(nil)); got != want {
			t.Fatalf("trace key %q, want %q", got, want)
		}

		e := experimentsQuery{ids: pick(r, []string{"E1"}, []string{"E1", "E13", "A2"}),
			cfg: experiments.Config{Seed: r.Uint64(), Symbols: r.Intn(200001), CodedSymbols: r.Intn(5001), Quanta: r.Intn(2_000_001)}}
		want = "experiments?" + fmt.Sprintf("id=%s&seed=%d&symbols=%d&coded=%d&quanta=%d",
			strings.Join(e.ids, ","), e.cfg.Seed, e.cfg.Symbols, e.cfg.CodedSymbols, e.cfg.Quanta)
		if got := string(e.appendKey(nil)); got != want {
			t.Fatalf("experiments key %q, want %q", got, want)
		}
	}
}

package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/capserver"
	"repro/internal/channel"
	"repro/internal/core"
	"repro/internal/session"
)

// The direct calls time a layer's public function on the workload's own
// inputs, with the system idle, for the layers whose cost the traced
// spans cannot isolate.

const directReps = 3

// kernelTimes times the Blahut–Arimoto capacity of the converted
// channel and core.ComputeBounds at cold-mix's bounds points.
func kernelTimes(points [][4]float64) (baUS, boundsUS float64, err error) {
	var ba, bounds []int64
	for rep := 0; rep < directReps; rep++ {
		for _, pt := range points {
			n, pd, pi, ps := int(pt[0]), pt[1], pt[2], pt[3]
			t0 := time.Now()
			dmc, err := core.ConvertedChannelDMC(n, pi)
			if err != nil {
				return 0, 0, err
			}
			if _, err := dmc.Capacity(1e-9, 2000); err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			if _, err := core.ComputeBounds(channel.Params{N: n, Pd: pd, Pi: pi, Ps: ps}); err != nil {
				return 0, 0, err
			}
			ba = append(ba, int64(t1.Sub(t0)))
			bounds = append(bounds, int64(time.Since(t1)))
		}
	}
	return pXus(ba, 50), pXus(bounds, 50), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// sessionCosts times session.DecodeBatch on session-ingest's bodies and
// Store.IngestEvents of the decoded events into a private store. Each is
// the median over directReps passes.
func sessionCosts(seed uint64) (decodeNs, decodeAllocs, applyNs float64, err error) {
	bodies, _ := sessionStream(seed, 0, 64)
	decoded := make([][]session.Event, len(bodies))
	var events int
	var dec, allocs, apply []float64
	for rep := 0; rep < directReps; rep++ {
		events = 0
		m0 := mallocs()
		t0 := time.Now()
		for i, b := range bodies {
			evs, err := session.DecodeBatch(bytes.NewReader(b), 0, 0)
			if err != nil {
				return 0, 0, 0, err
			}
			decoded[i] = evs
			events += len(evs)
		}
		el := time.Since(t0)
		m1 := mallocs()
		dec = append(dec, float64(el.Nanoseconds())/float64(events))
		allocs = append(allocs, float64(m1-m0)/float64(events))

		st, err := session.NewStore(session.StoreConfig{})
		if err != nil {
			return 0, 0, 0, err
		}
		t0 = time.Now()
		for _, evs := range decoded {
			if _, _, err := st.IngestEvents("direct", evs); err != nil {
				return 0, 0, 0, err
			}
		}
		apply = append(apply, float64(time.Since(t0).Nanoseconds())/float64(events))
	}
	return median(dec), median(allocs), median(apply), nil
}

// hitAllocs is the allocations per in-process Handler().ServeHTTP of a
// cached /v1/bounds key on a private server, httptest objects included.
func hitAllocs(uri string) (float64, error) {
	srv := capserver.New(capserver.Config{})
	defer srv.Shutdown(context.Background())
	serve := func() int {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest("GET", uri, nil))
		return rr.Code
	}
	if code := serve(); code != 200 {
		return 0, fmt.Errorf("hit-allocs warm-up of %s answered %d", uri, code)
	}
	const runs = 1000
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	serve()
	m0 := mallocs()
	for i := 0; i < runs; i++ {
		serve()
	}
	return float64(mallocs()-m0) / runs, nil
}

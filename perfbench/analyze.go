package main

import (
	"fmt"
	"path/filepath"
	"sort"
)

// layer is one per-layer metric, with the number of samples behind it
// (0 for counts and direct calls).
type layer struct {
	name    string
	value   float64
	unit    string
	samples int
}

type layers struct{ list []layer }

func (l *layers) set(name string, value float64, unit string, samples int) {
	l.list = append(l.list, layer{name, value, unit, samples})
}

func (l *layers) print() {
	for _, m := range l.list {
		if m.samples > 0 {
			fmt.Printf("layer %-36s %12.3f %-6s (n=%d)\n", m.name, m.value, m.unit, m.samples)
			continue
		}
		fmt.Printf("layer %-36s %12.3f %s\n", m.name, m.value, m.unit)
	}
}

// us sets the p-th percentile of a nanosecond sample set, in
// microseconds, with its size. Layers a workload never crosses have no
// samples and report 0.
func (l *layers) us(name string, ns []int64, p float64) {
	l.set(name, pXus(ns, p), "us", len(ns))
}

// reconciliation is the per-request check of client time against the
// server spans attributed to it.
type reconciliation struct {
	requests int
	negative int
	first    string
}

// analyze turns the traced run's spans into the per-layer metrics,
// prints the reconciliation table, and writes the spans out.
func analyze(p *plan, r *runResult, d direct) (*layers, reconciliation, error) {
	var rc reconciliation
	trees, loose := r.rec.buildTrees()
	if len(trees) == 0 {
		return nil, rc, fmt.Errorf("traced run recorded no spans")
	}
	var (
		residual, canon, hitServe, serveSelf, queue               []int64
		compute                                                   [3][]int64
		routeSelf, hop, ingestServe, getServe, storeGet, storePut []int64
		clients, reused, gets, getsCached                         int64
	)
	byClass := map[string][]int64{}
	for _, t := range trees {
		root := t.find(spanClient)
		if root < 0 || t.spans[root].end < r.phase.from || t.spans[root].end > r.phase.to {
			// Warm-pass and ramp requests, and server spans whose
			// client gave up: not measured requests.
			continue
		}
		rs := t.spans[root]
		clients++
		if rs.reused {
			reused++
		}
		if rs.endpoint == epGet {
			gets++
			if rs.boundsCached {
				getsCached++
			}
		}
		res, _ := t.residual()
		rc.requests++
		if res < 0 {
			rc.negative++
			if rc.first == "" {
				rc.first = fmt.Sprintf("request %016x: client %dns < server %dns", t.req, rs.dur(), rs.dur()-res)
			}
		}
		residual = append(residual, res)
		cls := t.class()
		byClass[cls] = append(byClass[cls], res)
		var canonNs int64
		if c := t.find(spanCanon); c >= 0 {
			canonNs = t.spans[c].dur()
			canon = append(canon, canonNs)
		}
		for i, s := range t.spans {
			switch s.name {
			case spanServe:
				sd := s.dur()
				if s.cache == cacheHit {
					hitServe = append(hitServe, sd)
				}
				serveSelf = append(serveSelf, sd-canonNs-1000*(s.queueUS+s.computeUS))
				if s.timed {
					queue = append(queue, 1000*s.queueUS)
					if rs.endpoint <= epSimulate {
						compute[rs.endpoint] = append(compute[rs.endpoint], 1000*s.computeUS)
					}
				}
				switch rs.endpoint {
				case epIngest:
					ingestServe = append(ingestServe, sd)
				case epGet:
					getServe = append(getServe, sd)
				}
			case spanRoute:
				routeSelf = append(routeSelf, selfTime(s, t.childSpans(i)))
			case spanForward:
				for _, c := range t.children(i) {
					if t.spans[c].name == spanRemote && !s.failed {
						hop = append(hop, s.dur()-t.spans[c].dur())
					}
				}
			}
		}
	}
	for _, s := range loose {
		switch s.name {
		case spanStoreGet:
			storeGet = append(storeGet, s.dur())
		case spanStorePut:
			storePut = append(storePut, s.dur())
		}
	}

	printReconciliation(p.workload, byClass)
	path := filepath.Join(".bench_build", "spans-"+p.workload+".tsv")
	if err := writeSpans(path, trees, loose); err != nil {
		return nil, rc, err
	}
	fmt.Printf("spans: %d requests written to %s\n", len(trees), path)

	ctr := r.phase.ctr
	setup := r.setupCtr
	l := &layers{}
	l.us("http.residual_us_p50", residual, 50)
	l.set("http.conn_reuse_ratio", ratio(reused, clients), "ratio", int(clients))
	l.us("capserver.canonicalize_us_p50", canon, 50)
	l.us("capserver.hit_serve_us_p50", hitServe, 50)
	l.set("capserver.hit_allocs", d.hitAllocs, "count", 0)
	l.us("capserver.serve_self_us_p50", serveSelf, 50)
	l.set("capserver.hit_ratio", ratio(ctr.hits+ctr.shared, ctr.lookups()), "ratio", 0)
	l.us("capserver.queue_us_p50", queue, 50)
	l.us("capserver.queue_us_p99", queue, 99)
	for ep := epBounds; ep <= epSimulate; ep++ {
		l.us("capserver.compute_us_p50."+endpointNames[ep], compute[ep], 50)
	}
	l.set("capserver.computes", float64(ctr.computes), "count", 0)
	l.set("capserver.queue_rejected", float64(ctr.rejected), "count", 0)
	l.set("capserver.abandoned", float64(ctr.abandoned), "count", 0)
	l.set("capserver.store_hits", float64(setup.storeHits+ctr.storeHits), "count", 0)
	l.set("infotheory.ba_capacity_us_p50", d.baUS, "us", 0)
	l.set("core.compute_bounds_us_p50", d.boundsUS, "us", 0)
	l.us("cluster.route_self_us_p50", routeSelf, 50)
	l.us("cluster.hop_us_p50", hop, 50)
	l.us("cluster.hop_us_p99", hop, 99)
	l.set("cluster.forward_ratio", ratio(ctr.forwards, ctr.forwards+ctr.owned), "ratio", 0)
	l.set("cluster.hedges", float64(ctr.hedges), "count", 0)
	l.set("cluster.retries", float64(ctr.retries), "count", 0)
	l.set("cluster.degraded", float64(ctr.degraded), "count", 0)
	l.us("casstore.get_us_p50", storeGet, 50)
	l.us("casstore.put_us_p50", storePut, 50)
	l.set("session.decode_ns_per_event", d.decodeNs, "ns", 0)
	l.set("session.decode_allocs_per_event", d.decodeAllocs, "count", 0)
	l.set("session.apply_ns_per_event", d.applyNs, "ns", 0)
	l.us("session.ingest_serve_us_p50", ingestServe, 50)
	l.us("session.get_serve_us_p50", getServe, 50)
	l.set("session.bounds_hit_ratio", ratio(getsCached, gets), "ratio", int(gets))
	return l, rc, nil
}

func (t *tree) childSpans(i int) []span {
	var out []span
	for _, c := range t.children(i) {
		out = append(out, t.spans[c])
	}
	return out
}

// printReconciliation prints, per request class, the residual: client
// latency minus the server spans attributed to the request, which is
// the HTTP client and server stack outside the handlers.
func printReconciliation(workload string, byClass map[string][]int64) {
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		s := sortedCopy(byClass[c])
		fmt.Printf("residual workload=%s class=%-9s n=%-7d min=%.1fus p50=%.1fus p99=%.1fus\n",
			workload, c, len(s), float64(s[0])/1e3, float64(percentile(s, 50))/1e3, float64(percentile(s, 99))/1e3)
	}
}

// direct holds the layer costs timed by direct calls.
type direct struct {
	hitAllocs, baUS, boundsUS, decodeNs, decodeAllocs, applyNs float64
}

// directLayers times the direct calls on the workload's inputs.
func directLayers(p *plan) (direct, error) {
	var d direct
	var err error
	if d.baUS, d.boundsUS, err = kernelTimes(p.kernelPoints); err != nil {
		return d, fmt.Errorf("kernel calls: %w", err)
	}
	if d.decodeNs, d.decodeAllocs, d.applyNs, err = sessionCosts(p.seed); err != nil {
		return d, fmt.Errorf("session calls: %w", err)
	}
	// The second bounds point of warm-mix carries no ba=1: a plain
	// cached bounds key.
	d.hitAllocs, err = hitAllocs(warmKeys(p.seed)[epBounds][1])
	return d, err
}

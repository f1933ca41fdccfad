package cluster

import (
	"time"

	"repro/internal/bench"
)

// BenchDoc is the BENCH_cluster.json document of a finished run. Its
// gates are the run's outcome conditions: byte identity with the
// single-node oracle and, on a fault run, fault machinery that engaged.
func BenchDoc(o HarnessOptions, rep *HarnessReport) *bench.Doc {
	mode := "full"
	if o.Requests < 200 {
		mode = "smoke"
	}
	d := bench.New("cluster", map[string]any{
		"mode": mode, "nodes": o.Nodes, "seed": o.Seed, "unique": o.Unique, "exact_n": o.ExactN,
		"killed": rep.Killed, "kill_after": o.KillAfter, "restart_after": o.RestartAfter,
		"hedge_delay_ms": float64(o.HedgeDelay) / float64(time.Millisecond),
	})
	d.Add("nodes", float64(len(o.Nodes)), "count")
	d.Add("requests", float64(rep.Requests), "count")
	d.Add("wall_ms", float64(rep.Wall)/float64(time.Millisecond), "ms")
	d.Add("throughput_rps", rep.Throughput(), "req/s")
	d.Add("failovers", float64(rep.Failovers), "count")
	d.Add("mismatches", float64(rep.Mismatches), "count")
	for _, n := range append(rep.Nodes, rep.Totals()) {
		p := n.Name + "."
		d.Add(p+"owned_local", float64(n.OwnedLocal), "count")
		d.Add(p+"forwards", float64(n.Forwards), "count")
		d.Add(p+"hedges", float64(n.Hedges), "count")
		d.Add(p+"hedge_wins", float64(n.HedgeWins), "count")
		d.Add(p+"retries", float64(n.Retries), "count")
		d.Add(p+"peer_errors", float64(n.PeerErrors), "count")
		d.Add(p+"degraded", float64(n.Degraded), "count")
		d.Add(p+"remote", float64(n.Remote), "count")
	}
	c := rep.Convergence
	d.Add("convergence.paths", float64(c.Paths), "count")
	d.Add("convergence.store_hits", float64(c.StoreHits), "count")
	d.Add("convergence.cache_hits", float64(c.CacheHits), "count")
	d.Add("convergence.recomputed", float64(c.Recomputed), "count")
	d.Add("convergence.errors", float64(c.Errors), "count")
	d.Add("store_entries", float64(rep.StoreEntries), "count")
	d.Require("mismatches", "==", 0)
	if rep.Killed != "" {
		d.Require("total.hedges", ">", 0)
		d.Require("total.retries", ">", 0)
		d.Require("total.degraded", ">", 0)
	}
	d.Passed = rep.Assert() == nil
	return d
}

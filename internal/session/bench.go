package session

import (
	"time"

	"repro/internal/bench"
)

// BenchDoc is the BENCH_sessions.json document of a finished run.
// Its gates are the run's outcome conditions: events flowed at a
// measured rate, drift was injected, and at most one drift session in
// a thousand went undetected.
func BenchDoc(cfg LoadConfig, rep *Report, wall time.Duration) *bench.Doc {
	d := bench.New("sessions", map[string]any{
		"seed": cfg.Seed, "clean_uses": cfg.CleanUses, "drift_uses": cfg.DriftUses,
		"drift_every": cfg.DriftEvery, "inject": cfg.Inject, "batch": cfg.Batch, "jobs": cfg.Jobs,
	})
	secs := wall.Seconds()
	d.Add("sessions", float64(rep.Sessions), "count")
	d.Add("drift_sessions", float64(rep.DriftSessions), "count")
	d.Add("events_total", float64(rep.EventsTotal), "count")
	d.Add("wall_ms", float64(wall)/float64(time.Millisecond), "ms")
	d.Add("events_per_sec", float64(rep.EventsTotal)/secs, "1/s")
	d.Add("ns_per_event", float64(wall.Nanoseconds())/float64(rep.EventsTotal), "ns")
	d.Add("sessions_per_sec", float64(rep.Sessions)/secs, "1/s")
	d.Add("converged", float64(rep.Converged), "count")
	d.Add("detected", float64(rep.Detected), "count")
	d.Add("missed", float64(rep.Missed), "count")
	d.Add("false_positives", float64(rep.FalsePositives), "count")
	d.Add("max_delay_uses", float64(rep.MaxDelay), "uses")
	d.Add("mean_delay_uses", rep.MeanDelay, "uses")
	for _, m := range []string{"events_total", "events_per_sec", "ns_per_event", "drift_sessions"} {
		d.Require(m, ">", 0)
	}
	d.Require("missed", "<=", float64(rep.DriftSessions/1000))
	d.Passed = rep.Assert() == nil
	return d
}

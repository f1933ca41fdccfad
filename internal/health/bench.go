package health

import (
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

// RunBench evaluates `rules` rate rules over `series` synthetic
// counters for `ticks` ticks on a retention-128 ring, measures
// throughput, and returns the BENCH_alerts.json document. The counter
// trajectories are deterministic (value = tick × stride per series,
// with a mid-run plateau so rules resolve as well as fire); only the
// timing figures vary. The gates require that the stream moved a rule,
// that throughput is positive and that the ring retained snapshots.
func RunBench(rules, series, ticks int) (*bench.Doc, error) {
	if rules < 1 || series < 1 || ticks < 2 {
		return nil, fmt.Errorf("health bench: need rules>=1 series>=1 ticks>=2")
	}
	names := make([]string, series)
	for i := range names {
		names[i] = fmt.Sprintf("bench_series_%d_total", i)
	}
	text := ""
	for i := 0; i < rules; i++ {
		// Spread rules across the series and windows; thresholds sit
		// where the synthetic stream crosses them.
		text += fmt.Sprintf("rule r%04d: rate(%s) > %d over %ds for 2 clear %d\n",
			i, names[i%series], 5+i%7, 10+10*(i%4), 2+i%3)
	}
	parsed, err := ParseRules(text)
	if err != nil {
		return nil, err
	}
	e, err := NewEngine(Config{Rules: parsed, Retention: 128, TickInterval: time.Second})
	if err != nil {
		return nil, err
	}

	transitions := 0
	start := time.Now()
	for tick := 0; tick < ticks; tick++ {
		var data obs.RegistrySnapshot
		data.Series = make([]obs.SeriesSample, series)
		for i := range names {
			// Ramp fast, plateau, ramp again: crossings both ways.
			v := int64(tick) * int64(3+i%13)
			if tick%50 >= 25 {
				v = int64(tick/50*50) * int64(3+i%13)
			}
			data.Series[i] = obs.SeriesSample{Name: names[i], Kind: "counter", Value: v}
		}
		transitions += len(e.Tick(data))
	}
	wall := time.Since(start)

	d := bench.New("alerts", map[string]any{"retention": 128})
	d.Add("rules", float64(rules), "count")
	d.Add("series", float64(series), "count")
	d.Add("ticks", float64(ticks), "count")
	d.Add("transitions", float64(transitions), "count")
	d.Add("wall_ms", float64(wall)/float64(time.Millisecond), "ms")
	d.Add("evals_per_sec", float64(rules*ticks)/wall.Seconds(), "1/s")
	d.Add("ticks_per_sec", float64(ticks)/wall.Seconds(), "1/s")
	d.Add("ring_snapshots", float64(e.Ring().Len()), "count")
	d.Add("ring_bytes", float64(e.Ring().MemoryBytes()), "bytes")
	for _, m := range []string{"transitions", "wall_ms", "evals_per_sec", "ticks_per_sec", "ring_snapshots", "ring_bytes"} {
		d.Require(m, ">", 0)
	}
	d.Passed = true
	return d, nil
}

// Command capwatch is the live cluster monitor and the acceptance gate
// for the health verdict layer (internal/health): it polls any
// member's /v1/cluster/status and renders a deterministic one-page
// view of the fleet — per-member alert state, session pressure, cache
// effectiveness and route latency — or drives the alert-lifecycle
// fault harness and the rule-engine benchmark.
//
// Modes:
//
//	capwatch -target http://host:8080            # live view, repainted
//	                                             # every -interval
//	capwatch -target http://host:8080 -once      # one deterministic
//	                                             # page, then exit (CI)
//	capwatch -mode harness -assert               # kill/restart a member
//	                                             # and gate the exact
//	                                             # healthy -> firing ->
//	                                             # resolved timeline,
//	                                             # byte-identical at
//	                                             # -jobs 1 and -jobs 8
//	capwatch -mode bench -bench-out BENCH_alerts.json
//	                                             # rule-engine throughput
//	                                             # document, failing
//	                                             # unless it passes
//	                                             # bench.Check
//
// The harness timeline and the rendered page are pure functions of
// their inputs: wall-clock timing goes to separate "timing:" lines so
// the deterministic part stays diffable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/health"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capwatch:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("capwatch", flag.ContinueOnError)
	var (
		mode     = fs.String("mode", "watch", "mode: watch | harness | bench")
		target   = fs.String("target", "http://127.0.0.1:8080", "watch mode: any cluster member's base URL")
		interval = fs.Duration("interval", 5*time.Second, "watch mode: repaint interval")
		once     = fs.Bool("once", false, "watch mode: render one page and exit")
		count    = fs.Int("count", 0, "watch mode: pages to render before exiting (0 = forever)")

		jobs    = fs.Int("jobs", 4, "harness mode: request send parallelism; the timeline must not depend on it")
		seed    = fs.Uint64("seed", 1, "harness mode: scenario seed (probe path, and with it the kill target)")
		reqTick = fs.Int("requests-per-tick", 0, "harness mode: per-tick workload (0 = default 12)")
		assert  = fs.Bool("assert", false, "harness mode: fail unless the full alert lifecycle and jobs-invariance hold")

		rules    = fs.Int("rules", 400, "bench mode: rule count")
		series   = fs.Int("series", 24, "bench mode: counter series count")
		ticks    = fs.Int("ticks", 600, "bench mode: evaluation ticks")
		benchOut = fs.String("bench-out", "", "bench mode: write the BENCH_alerts.json document here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "watch":
		return watch(out, *target, *interval, *once, *count)

	case "harness":
		opts := cluster.HealthHarnessOptions{
			Jobs:            *jobs,
			Seed:            *seed,
			RequestsPerTick: *reqTick,
			Out:             out,
		}
		report, survivors, err := cluster.RunHealthHarness(opts)
		if err != nil {
			return err
		}
		report.Format(out)
		fmt.Fprintf(out, "timing: wall=%v\n", report.Wall.Round(time.Millisecond))
		if !*assert {
			return nil
		}
		if err := report.Assert(survivors); err != nil {
			return err
		}
		// Jobs invariance: the same scenario at a different parallelism
		// must produce the identical timeline, byte for byte.
		alt := opts
		alt.Jobs = 1
		if opts.Jobs == 1 {
			alt.Jobs = 8
		}
		alt.Out = io.Discard
		report2, _, err := cluster.RunHealthHarness(alt)
		if err != nil {
			return err
		}
		t1 := strings.Join(report.Timeline, "\n")
		t2 := strings.Join(report2.Timeline, "\n")
		if t1 != t2 {
			return fmt.Errorf("timeline differs between -jobs %d and -jobs %d:\n--- a\n%s\n--- b\n%s",
				opts.Jobs, alt.Jobs, t1, t2)
		}
		fmt.Fprintf(out, "capwatch-assert: lifecycle, reset immunity and jobs-invariance (jobs %d == jobs %d) all hold\n",
			opts.Jobs, alt.Jobs)
		return nil

	case "bench":
		start := time.Now()
		d, err := health.RunBench(*rules, *series, *ticks)
		if err != nil {
			return err
		}
		transitions, _ := d.Value("transitions")
		evals, _ := d.Value("evals_per_sec")
		ringBytes, _ := d.Value("ring_bytes")
		fmt.Fprintf(out, "bench: %d rules x %d ticks over %d series: %.0f transitions, %.0f evals/s, ring %.0f bytes\n",
			*rules, *ticks, *series, transitions, evals, ringBytes)
		fmt.Fprintf(out, "timing: wall=%v\n", time.Since(start).Round(time.Millisecond))
		if *benchOut != "" {
			if err := bench.Write(*benchOut, d); err != nil {
				return err
			}
			fmt.Fprintf(out, "wrote %s\n", *benchOut)
		}
		return nil

	default:
		return fmt.Errorf("unknown mode %q (want watch, harness or bench)", *mode)
	}
}

// watch polls the status endpoint and renders pages until the page
// budget runs out.
func watch(out io.Writer, target string, interval time.Duration, once bool, count int) error {
	if once {
		count = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}
	for page := 0; count == 0 || page < count; page++ {
		if page > 0 {
			time.Sleep(interval)
		}
		st, err := fetchStatus(client, target)
		if err != nil {
			return err
		}
		renderPage(out, target, st)
	}
	return nil
}

// fetchStatus pulls one federation snapshot.
func fetchStatus(client *http.Client, target string) (*cluster.ClusterStatus, error) {
	resp, err := client.Get(strings.TrimRight(target, "/") + cluster.StatusPath)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s answered %d", target, resp.StatusCode)
	}
	var st cluster.ClusterStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("bad status document: %w", err)
	}
	if st.Schema != cluster.StatusSchema {
		return nil, fmt.Errorf("status schema %q, want %q", st.Schema, cluster.StatusSchema)
	}
	return &st, nil
}

// renderPage writes the one-page cluster view. Everything printed
// derives from the snapshot document, whose ordering the federation
// layer already fixed, so a quiesced cluster renders byte-identically
// on every poll — the property `capwatch -once` leans on in CI.
func renderPage(out io.Writer, target string, st *cluster.ClusterStatus) {
	verdict := "ok"
	if st.Alerts.Firing > 0 {
		verdict = "FIRING"
	} else if st.Alerts.Pending > 0 {
		verdict = "pending"
	}
	if st.Partial {
		verdict += " (partial)"
	}
	fmt.Fprintf(out, "capwatch %s  verdict=%s firing=%d pending=%d degraded_total=%d\n",
		target, verdict, st.Alerts.Firing, st.Alerts.Pending, st.Totals["cluster_degraded_total"])
	if len(st.Alerts.FiringRules) > 0 {
		fmt.Fprintf(out, "firing: %s\n", strings.Join(st.Alerts.FiringRules, ", "))
	}
	fmt.Fprintf(out, "%-8s %-9s %6s %7s %9s %7s %6s  %s\n",
		"member", "health", "firing", "pending", "sessions", "cache%", "ring‰", "routes p50/p99 ms")
	for _, m := range st.Members {
		if !m.Healthy {
			fmt.Fprintf(out, "%-8s %-9s %s\n", m.Name, "DOWN", m.Error)
			continue
		}
		firing, pending := 0, 0
		if m.Alerts != nil {
			firing, pending = m.Alerts.Firing, m.Alerts.Pending
		}
		hits := m.Counters["capserver_cache_hits_total"]
		misses := m.Counters["capserver_cache_misses_total"]
		ratio := 0.0
		if hits+misses > 0 {
			ratio = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(out, "%-8s %-9s %6d %7d %9d %6.1f %6d  %s\n",
			m.Name, "ok", firing, pending,
			m.Counters["capserver_sessions_active"], ratio, st.RingPermille[m.Name],
			formatRoutes(m.Routes))
	}
	fmt.Fprintf(out, "alerts by rule:\n")
	for _, line := range alertRollup(st) {
		fmt.Fprintf(out, "  %s\n", line)
	}
}

// formatRoutes renders the per-route latency summaries on one line.
func formatRoutes(routes []cluster.RouteLatency) string {
	parts := make([]string, 0, len(routes))
	for _, r := range routes {
		parts = append(parts, fmt.Sprintf("%s %.3g/%.3g", r.Endpoint, r.P50MS, r.P99MS))
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, " ")
}

// alertRollup merges the members' verdicts into per-rule lines:
// "rule state(member,...)" with members sorted, worst state first.
func alertRollup(st *cluster.ClusterStatus) []string {
	type cell struct{ rule, state, member string }
	var cells []cell
	for _, m := range st.Members {
		if m.Alerts == nil {
			continue
		}
		for _, a := range m.Alerts.Alerts {
			cells = append(cells, cell{a.Rule, a.State, m.Name})
		}
	}
	byRule := make(map[string]map[string][]string)
	for _, c := range cells {
		if byRule[c.rule] == nil {
			byRule[c.rule] = make(map[string][]string)
		}
		byRule[c.rule][c.state] = append(byRule[c.rule][c.state], c.member)
	}
	rules := make([]string, 0, len(byRule))
	for rule := range byRule {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	lines := make([]string, 0, len(rules))
	for _, rule := range rules {
		var parts []string
		for _, state := range []string{"firing", "pending", "inactive"} {
			members := byRule[rule][state]
			if len(members) == 0 {
				continue
			}
			sort.Strings(members)
			parts = append(parts, fmt.Sprintf("%s(%s)", state, strings.Join(members, ",")))
		}
		lines = append(lines, fmt.Sprintf("%-24s %s", rule, strings.Join(parts, " ")))
	}
	return lines
}

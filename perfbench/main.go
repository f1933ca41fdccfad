// Command perfbench is the repository's steady-state benchmark. It
// boots the capserver service in process, drives one of four seeded
// closed-loop workloads from two clients, checks the responses, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end set, measured with
// tracing off. With -trace 1 the run measures the workload untraced
// and then replays it traced, and the metrics are the per-layer split.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload warm-mix --seed 1 --seconds 25 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

var workloads = []string{"warm-mix", "cold-mix", "cluster-warm", "session-ingest"}

// Set-up repeats until it has run at least setupMinReps times and for
// setupBudget, or setupMaxReps times. One boot takes a few milliseconds
// (a fifth of a second on cold-mix), so a single disturbed boot moves
// a small sample's median; hundreds of boots do not.
const (
	setupMinReps = 15
	setupMaxReps = 400
	setupBudget  = 3 * time.Second
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := fs.Int("seconds", 25, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 replays the workload traced and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1}
	if !slices.Contains(workloads, cfg.workload) || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	out, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is one measurement: repeated set-ups, then a timed phase on
// the last system booted.
type runResult struct {
	setups     []float64 // seconds
	phase      *phaseResult
	setupCtr   counters // program counters at the end of the last set-up
	retainedMB float64
	checks     checkReport
	rec        *recorder
}

// liveHeap is the heap in use after forced collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// measure boots the workload's system, timing boot plus the warm pass,
// until it has done so minReps times and for budget (or setupMaxReps
// times); it keeps the last one, drives the timed phase on it, checks
// the responses, and measures the heap the running system retains. A
// traced measurement wraps the system's entry points with a recorder.
func measure(p *plan, workDir string, minReps int, budget, ramp, timed time.Duration, traced bool) (res *runResult, err error) {
	res = &runResult{}
	var sys *system
	var cs []*client
	var baseline uint64
	start := time.Now()
	for i := 0; sys == nil; i++ {
		last := i+1 >= minReps && (time.Since(start) >= budget || i+1 >= setupMaxReps)
		runtime.GC()
		if last {
			baseline = liveHeap()
			if traced {
				res.rec = newRecorder()
			}
		}
		t0 := time.Now()
		s, err := boot(p.workload, workDir, res.rec)
		if err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		c := newClients(p)
		werr := warmPass(s, p, c)
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if werr != nil || !last {
			if err := s.close(); err != nil && werr == nil {
				werr = fmt.Errorf("shutdown: %w", err)
			}
			closeClients(c)
			if werr != nil {
				return nil, werr
			}
			continue
		}
		sys, cs = s, c
	}
	defer func() {
		if cerr := sys.close(); cerr != nil && err == nil {
			err = fmt.Errorf("shutdown: %w", cerr)
		}
		closeClients(cs)
	}()
	res.setupCtr = sys.counters()
	res.phase = runPhase(sys, p, cs, ramp, timed, true)
	if res.phase.err != nil {
		return nil, res.phase.err
	}
	if p.workload == "session-ingest" {
		res.checks = checkSessions(sys, p, res.phase.captured, res.phase.executed, cs)
	} else {
		res.checks = checkOracle(p, res.phase.captured)
	}
	res.phase.captured = nil
	res.retainedMB = (float64(liveHeap()) - float64(baseline)) / (1 << 20)
	return res, nil
}

// cpuModel reads the processor name for the provenance line.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func rampFor(timed time.Duration) time.Duration {
	return min(max(timed/20, 250*time.Millisecond), time.Second)
}

func execute(cfg config) (*output, error) {
	workDir, err := filepath.Abs(filepath.Join(".bench_build", "run-"+cfg.workload+"-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)

	timed := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		// Half the time measures the untraced baseline for the tracing
		// overhead, half replays the workload traced.
		timed /= 2
	}
	ramp := rampFor(timed)
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%t\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("provenance: go=%s GOMAXPROCS=%d cpu=%q clients=%d loop=closed ramp=%v timed=%v\n",
		runtime.Version(), runtime.GOMAXPROCS(0), cpuModel(), numClients, ramp, timed)

	p, err := buildPlan(cfg.workload, cfg.seed, (ramp + timed + time.Second).Seconds())
	if err != nil {
		return nil, err
	}
	opsN := 0
	for _, c := range p.clients {
		opsN += len(c)
	}
	fmt.Printf("plan: digest=%s seed=%d ops=%d warm=%d cyclic=%t off_heap_mb=%.2f bench_live_heap_mb=%.2f\n",
		p.digest(), cfg.seed, opsN, len(p.warm), p.cyclic, float64(p.offHeapBytes)/(1<<20), float64(liveHeap())/(1<<20))

	untraced, err := measure(p, workDir, setupMinReps, setupBudget, ramp, timed, false)
	if err != nil {
		return nil, err
	}
	out := &output{Correct: true, Metrics: map[string]metric{}}
	report(cfg.workload, "untraced", untraced, out)
	e := untraced.phase.e2e()
	if !cfg.trace {
		out.Metrics["throughput_rps"] = metric{e.rps, "req/s"}
		out.Metrics["latency_p50_us"] = metric{e.p50, "us"}
		out.Metrics["cpu_us_per_req"] = metric{e.cpuPerReq, "us"}
		out.Metrics["allocs_per_req"] = metric{e.allocsPerReq, "count"}
		out.Metrics["retained_heap_mb"] = metric{untraced.retainedMB, "MiB"}
		out.Metrics["setup_s"] = metric{median(untraced.setups), "s"}
		return out, nil
	}

	traced, err := measure(p, workDir, 1, 0, ramp, timed, true)
	if err != nil {
		return nil, err
	}
	report(cfg.workload, "traced", traced, out)
	d, err := directLayers(p)
	if err != nil {
		return nil, err
	}
	layers, recon, err := analyze(p, traced, d)
	if err != nil {
		return nil, err
	}
	if recon.negative > 0 {
		fmt.Printf("reconciliation: FAILED: %d of %d requests have a negative residual (first: %s)\n", recon.negative, recon.requests, recon.first)
		out.Correct = false
	} else {
		fmt.Printf("reconciliation: ok: client latency >= attributed server spans on all %d requests\n", recon.requests)
	}
	te := traced.phase.e2e()
	layers.set("runtime.gc_per_kreq", e.gcPerKReq, "count", 0)
	layers.set("trace.overhead_pct", 100*(e.rps-te.rps)/e.rps, "%", 0)
	for _, l := range layers.list {
		out.Metrics[l.name] = metric{l.value, l.unit}
	}
	layers.print()
	return out, nil
}

// report prints one measurement's accounting and end-to-end metrics and
// folds its counts and checks into the output.
func report(workload, label string, r *runResult, out *output) {
	ph := r.phase
	attempted, ok := ph.attempted, ph.ok
	failed := attempted - ok + int64(r.checks.mismatches)
	out.Attempted += attempted
	out.Failed += failed
	if failed > 0 {
		out.Correct = false
	}
	codes := make([]int, 0, len(ph.status))
	for c := range ph.status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var sb strings.Builder
	for _, c := range codes {
		fmt.Fprintf(&sb, " %d:%d", c, ph.status[c])
	}
	fmt.Printf("[%s] setup: %d boots, seconds min/p25/p50/p75/max %s\n", label, len(r.setups), fmtFloats(quartiles(r.setups)))
	fmt.Printf("[%s] requests: attempted=%d succeeded=%d failed=%d transport_errors=%d status{%s }\n",
		label, attempted, ok, failed, ph.errs, sb.String())
	if ph.firstFail != "" {
		fmt.Printf("[%s] requests: first failure: %s\n", label, ph.firstFail)
	}
	check := "byte-identical to a single-node oracle capserver"
	if workload == "session-ingest" {
		check = "estimates bit-exact with obs.UseCounts.Estimate over the events sent"
	}
	fmt.Printf("[%s] correctness: checked=%d mismatches=%d (%s)\n", label, r.checks.checked, r.checks.mismatches, check)
	if r.checks.first != "" {
		fmt.Printf("[%s] correctness: first mismatch: %s\n", label, r.checks.first)
	}
	e := ph.e2e()
	per := min(windowSamples, int(attempted))
	fmt.Printf("[%s] throughput_rps %.1f req/s (%d 2xx responses in %.3f s)\n", label, e.rps, ok, ph.seconds)
	fmt.Printf("[%s] latency_p50_us %.1f us (mean over %d windows; n=%d samples, %d per window)\n", label, e.p50, len(ph.windows), attempted, per)
	fmt.Printf("[%s] latency_p99_us %.1f us (median over %d windows; n=%d samples, %d per window, %d beyond p99 in each;"+
		" highest percentile with >=10 samples beyond it: p%g per window, p%g per run)\n",
		label, e.p99, len(ph.windows), attempted, per, beyond(per, 99), highestPercentile(per), highestPercentile(int(attempted)))
	fmt.Printf("[%s] error_rate %.6f ratio (%d failed / %d attempted)\n", label, ratio(failed, attempted), failed, attempted)
	fmt.Printf("[%s] cpu_us_per_req %.2f us\n", label, e.cpuPerReq)
	fmt.Printf("[%s] allocs_per_req %.2f count\n", label, e.allocsPerReq)
	if label == "untraced" {
		fmt.Printf("[%s] retained_heap_mb %.3f MiB\n", label, r.retainedMB)
		fmt.Printf("[%s] setup_s %.4f s (median of %d)\n", label, median(r.setups), len(r.setups))
	}
	if workload == "session-ingest" {
		fmt.Printf("[%s] events_per_s %.0f events/s\n", label, float64(ph.okBy[epIngest]*sessionEvents)/ph.seconds)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

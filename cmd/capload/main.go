// Command capload is the deterministic load harness for capserverd
// (see internal/capserver): a seeded request generator with mixed
// endpoint workloads, reporting throughput, latency percentiles and
// cache hit rate. It anchors the repository's serving benchmarks.
//
// Modes:
//
//	capload -selfhost -mode smoke        # start a server in-process,
//	                                     # hit every endpoint, assert
//	                                     # 200 + valid JSON, shut down
//	capload -selfhost -mode load         # seeded mixed-workload run
//	capload -selfhost -mode bench-cache  # cache-hit vs cache-miss
//	                                     # median latency benchmark
//	capload -addr http://127.0.0.1:8080 -mode load -requests 2000 -c 16
//
//	capload -mode cluster -cluster n1,n2,n3 \
//	        -kill-after 60 -restart-after 130 -assert \
//	        -bench-out BENCH_cluster.json
//	                                     # stand up an in-process
//	                                     # 3-node cluster over a shared
//	                                     # result store, kill and
//	                                     # restart a node mid-run,
//	                                     # assert byte identity vs a
//	                                     # single-node oracle and
//	                                     # post-restart convergence;
//	                                     # -bench-out writes the run's
//	                                     # bench document and fails
//	                                     # unless it passes bench.Check
//	capload -mode cluster -cluster n1,n2,n3 -trace-dir /tmp/run -assert
//	                                     # same fault run with request
//	                                     # tracing on: per-node span
//	                                     # files + counters.json for
//	                                     # cmd/capstat, and -assert
//	                                     # additionally requires the
//	                                     # trace to reconcile exactly
//	                                     # with the routing counters
//
// The request sequence (endpoints, parameter points, order) is a pure
// function of -seed, so two runs against equivalent servers issue the
// same workload; in cluster mode the dispatch choices and the
// kill/restart schedule are seeded too, so a failing fault run replays
// bit-for-bit.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/capserver"
	"repro/internal/cluster"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "capload:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("capload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "", "base URL of a running capserverd (e.g. http://127.0.0.1:8080)")
		selfhost = fs.Bool("selfhost", false, "start a capserver in-process on an ephemeral port")
		mode     = fs.String("mode", "load", "mode: load | smoke | bench-cache")
		requests = fs.Int("requests", 400, "total requests (load mode)")
		conc     = fs.Int("c", 8, "concurrent client workers (load mode)")
		seed     = fs.Uint64("seed", 1, "request-sequence seed")
		unique   = fs.Int("unique", 16, "distinct parameter points per endpoint (load mode)")
		mixFlag  = fs.String("mix", "bounds=0.7,predict=0.2,simulate=0.1", "endpoint weights (load mode)")
		exactN   = fs.Int("exact-n", 0, "bounds requests carry exact_n=<v> so misses pay real compute (load mode)")
		benchN   = fs.Int("bench-exact-n", 9, "exact_n of the bench-cache computation")
		points   = fs.Int("bench-points", 3, "distinct cold points measured in bench-cache")
		hits     = fs.Int("bench-hits", 30, "cache-hit requests measured in bench-cache")
		minRatio = fs.Float64("min-speedup", 0, "fail bench-cache below this hit-vs-miss speedup (0 = report only)")
		workers  = fs.Int("workers", 0, "selfhost: compute workers (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 64, "selfhost: compute queue depth")
		cacheSz  = fs.Int("cache", 1024, "selfhost: LRU cache entries")

		clusterFlag = fs.String("cluster", "n1,n2,n3", "cluster mode: comma-separated member names")
		killAfter   = fs.Int("kill-after", 0, "cluster mode: kill a node before this request index (0 = requests/3, negative = no fault)")
		restart     = fs.Int("restart-after", 0, "cluster mode: restart the killed node before this request index (0 = 2*requests/3, negative = leave it down)")
		killNode    = fs.String("kill-node", "", "cluster mode: member to kill (default: middle of sorted names)")
		hedge       = fs.Duration("hedge", 0, "cluster mode: hedge delay (0 = 5ms, negative = no hedging)")
		storeDir    = fs.String("store", "", "cluster mode: shared result-store directory (default: fresh temp dir)")
		benchOut    = fs.String("bench-out", "", "cluster mode: write the run's BENCH_cluster.json document here")
		assert      = fs.Bool("assert", false, "cluster mode: fail on any harness assertion (byte identity, convergence, fault counters)")
		trace       = fs.Bool("trace", false, "cluster mode: trace every request and reconcile spans against routing counters")
		traceDir    = fs.String("trace-dir", "", "cluster mode: write per-node trace JSONL and counters.json here for capstat (implies -trace)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *mode {
	case "cluster":
		return runCluster(cluster.HarnessOptions{
			Nodes:        strings.Split(*clusterFlag, ","),
			Requests:     *requests,
			Seed:         *seed,
			Unique:       *unique,
			ExactN:       *exactN,
			KillNode:     *killNode,
			KillAfter:    *killAfter,
			RestartAfter: *restart,
			HedgeDelay:   *hedge,
			StoreDir:     *storeDir,
			Workers:      *workers,
			QueueDepth:   *queue,
			CacheEntries: *cacheSz,
			Trace:        *trace,
			TraceDir:     *traceDir,
			Out:          out,
		}, *benchOut, *assert)
	}

	base := strings.TrimRight(*addr, "/")
	if *selfhost {
		if base != "" {
			return fmt.Errorf("-selfhost and -addr are mutually exclusive")
		}
		srv := capserver.New(capserver.Config{Workers: *workers, QueueDepth: *queue, CacheEntries: *cacheSz})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go func() { _ = srv.Serve(l) }()
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		base = "http://" + l.Addr().String()
		fmt.Fprintf(out, "selfhost server on %s\n", base)
	}
	if base == "" {
		return fmt.Errorf("need -addr or -selfhost")
	}

	switch *mode {
	case "smoke":
		if err := capserver.Smoke(base, nil); err != nil {
			return err
		}
		fmt.Fprintln(out, "smoke: every endpoint returned 200 with valid JSON")
		return nil
	case "bench-cache":
		res, err := capserver.BenchCache(base, *benchN, *points, *hits, nil)
		if err != nil {
			return err
		}
		res.Format(out)
		if *minRatio > 0 && res.Speedup < *minRatio {
			return fmt.Errorf("cache speedup %.1fx below required %.1fx", res.Speedup, *minRatio)
		}
		return nil
	case "load":
		mix, err := parseMix(*mixFlag)
		if err != nil {
			return err
		}
		report, err := capserver.RunLoad(capserver.LoadOptions{
			BaseURL:     base,
			Requests:    *requests,
			Concurrency: *conc,
			Seed:        *seed,
			Unique:      *unique,
			Mix:         mix,
			ExactN:      *exactN,
		})
		if err != nil {
			return err
		}
		report.Format(out)
		return nil
	default:
		return fmt.Errorf("unknown mode %q (want load, smoke, bench-cache or cluster)", *mode)
	}
}

// runCluster drives the multi-node fault harness and optionally writes
// its bench document.
func runCluster(ho cluster.HarnessOptions, benchOut string, assert bool) error {
	var names []string
	for _, n := range ho.Nodes {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) < 2 {
		return fmt.Errorf("-cluster %q names fewer than 2 members", strings.Join(ho.Nodes, ","))
	}
	ho.Nodes = names
	ho = ho.WithDefaults()
	rep, err := cluster.RunHarness(ho)
	if err != nil {
		return err
	}
	rep.Format(ho.Out)
	if assert {
		if err := rep.Assert(); err != nil {
			return err
		}
		if rep.Trace != nil {
			fmt.Fprintln(ho.Out, "cluster-assert: byte identity, convergence, fault counters and trace reconciliation all hold")
		} else {
			fmt.Fprintln(ho.Out, "cluster-assert: byte identity, convergence and fault counters all hold")
		}
	}
	if benchOut != "" {
		if err := bench.Write(benchOut, cluster.BenchDoc(ho, rep)); err != nil {
			return err
		}
		fmt.Fprintf(ho.Out, "wrote %s\n", benchOut)
	}
	return nil
}

// parseMix parses "bounds=0.7,predict=0.2,simulate=0.1".
func parseMix(s string) (map[string]float64, error) {
	mix := make(map[string]float64)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("mix item %q is not endpoint=weight", part)
		}
		name = strings.TrimSpace(name)
		switch name {
		case "bounds", "predict", "simulate":
		default:
			return nil, fmt.Errorf("mix endpoint %q unknown (want bounds, predict or simulate)", name)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix item %q: bad weight", part)
		}
		if w > 0 {
			mix[name] = w
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("mix %q selects no endpoints", s)
	}
	return mix, nil
}

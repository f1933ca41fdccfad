package cluster

import (
	"bytes"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// serviceGoroutines counts the running goroutines whose stacks pass
// through the serving packages, keyed by their call chain (function
// names only, so two workers of one pool share a key). Test goroutines
// are left out.
func serviceGoroutines() (counts map[string]int, example map[string]string) {
	var buf bytes.Buffer
	_ = pprof.Lookup("goroutine").WriteTo(&buf, 2)
	counts, example = make(map[string]int), make(map[string]string)
	for _, g := range strings.Split(buf.String(), "\n\n") {
		if strings.Contains(g, "testing.tRunner") ||
			!(strings.Contains(g, "repro/internal/capserver") || strings.Contains(g, "repro/internal/cluster")) {
			continue
		}
		var chain []string
		for _, line := range strings.Split(g, "\n")[1:] {
			if line == "" || strings.HasPrefix(line, "\t") {
				continue
			}
			if i := strings.LastIndex(line, "("); i > 0 && !strings.HasPrefix(line, "created by") {
				line = line[:i]
			}
			if i := strings.Index(line, " in goroutine"); i > 0 {
				line = line[:i]
			}
			chain = append(chain, line)
		}
		key := strings.Join(chain, " <- ")
		counts[key]++
		example[key] = g
	}
	return counts, example
}

// TestHarnessesLeaveNoGoroutines: a kill/restart run starts a worker
// pool, a session janitor and router peer goroutines on every
// incarnation, the killed one and the oracle included. Once the run
// returns, none of them may still be running.
func TestHarnessesLeaveNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node harness in -short")
	}
	before, _ := serviceGoroutines()
	if _, _, err := RunHealthHarness(HealthHarnessOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunHarness(HarnessOptions{Requests: 30, Unique: 4, ExactN: 4, StoreDir: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	// A goroutine can take a moment to unwind after its server closed;
	// a leaked one never does.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after, example := serviceGoroutines()
		var leaked []string
		for key, n := range after {
			if n > before[key] {
				leaked = append(leaked, example[key])
			}
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine stacks outlive the runs, e.g.:\n%s", len(leaked), strings.Join(leaked, "\n\n"))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

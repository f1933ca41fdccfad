// Package bench owns the format of the committed BENCH_*.json files.
// Every producer (kernelbench, capload's cluster run, sessload and
// capwatch's rule-engine bench) writes the same envelope: where the
// run happened, how it was configured, what it measured, and the
// outcome conditions ("gates") the measurements must meet. Check is
// the one validator: a document that passes it carries the proof of
// its own outcome, whichever producer wrote it.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// Schema is the envelope's format tag. Bump on layout changes.
const Schema = "capest/bench/v1"

// Kinds names the producers; the committed file of each is
// BENCH_<kind>.json.
var Kinds = []string{"kernels", "cluster", "sessions", "alerts"}

// Doc is one BENCH file.
type Doc struct {
	Schema     string     `json:"schema"`
	Kind       string     `json:"kind"`
	Provenance Provenance `json:"provenance"`
	// Config holds the producer's run parameters, for the reader; Check
	// does not look at it.
	Config  map[string]any `json:"config"`
	Metrics []Metric       `json:"metrics"`
	Gates   []Gate         `json:"gates"`
	// Passed is the run's own verdict (its assertion suite), which Check
	// requires on top of the gates.
	Passed bool `json:"passed"`
}

// Provenance records where a document was measured.
type Provenance struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

// Metric is one measured or counted value.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Gate is one outcome condition: the named metric compared with Bound
// under Op, which is one of ==, >, >= and <=.
type Gate struct {
	Metric string  `json:"metric"`
	Op     string  `json:"op"`
	Bound  float64 `json:"bound"`
}

// New starts a document of the given kind, stamped with this process's
// provenance.
func New(kind string, config map[string]any) *Doc {
	return &Doc{
		Schema:     Schema,
		Kind:       kind,
		Provenance: Provenance{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel()},
		Config:     config,
	}
}

// Add records a metric.
func (d *Doc) Add(name string, value float64, unit string) {
	d.Metrics = append(d.Metrics, Metric{Name: name, Value: value, Unit: unit})
}

// Require records a gate on a metric.
func (d *Doc) Require(metric, op string, bound float64) {
	d.Gates = append(d.Gates, Gate{Metric: metric, Op: op, Bound: bound})
}

// Value returns the named metric's value.
func (d *Doc) Value(name string) (float64, bool) {
	for _, m := range d.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// eval reports whether the document's metrics satisfy g.
func (d *Doc) eval(g Gate) error {
	v, ok := d.Value(g.Metric)
	if !ok {
		return fmt.Errorf("gate %s %s %g names a missing metric", g.Metric, g.Op, g.Bound)
	}
	var hold bool
	switch g.Op {
	case "==":
		hold = v == g.Bound
	case ">":
		hold = v > g.Bound
	case ">=":
		hold = v >= g.Bound
	case "<=":
		hold = v <= g.Bound
	default:
		return fmt.Errorf("gate %s has unknown op %q", g.Metric, g.Op)
	}
	if !hold {
		return fmt.Errorf("gate %s %s %g fails: %s = %g", g.Metric, g.Op, g.Bound, g.Metric, v)
	}
	return nil
}

// Check validates a document: a known schema and kind, at least one
// gate, every gate holding, and a passing run.
func Check(d *Doc) error {
	switch {
	case d.Schema != Schema:
		return fmt.Errorf("schema %q, want %q", d.Schema, Schema)
	case !slices.Contains(Kinds, d.Kind):
		return fmt.Errorf("unknown kind %q (want one of %s)", d.Kind, strings.Join(Kinds, ", "))
	case len(d.Gates) == 0:
		return errors.New("no gates: the document proves nothing")
	}
	for _, g := range d.Gates {
		if err := d.eval(g); err != nil {
			return err
		}
	}
	if !d.Passed {
		return errors.New("records a failed run")
	}
	return nil
}

// Write writes d to path as indented JSON and checks it. A document
// that fails Check is still written where JSON can hold it, so the
// failing record can be read; the Check error takes precedence over a
// write error.
func Write(path string, d *Doc) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if cerr := Check(d); cerr != nil {
		return fmt.Errorf("%s: %w", path, cerr)
	}
	return err
}

// Read parses a document.
func Read(path string) (*Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// cpuModel names the host CPU from /proc/cpuinfo where the platform
// has one, and the architecture otherwise.
func cpuModel() string {
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

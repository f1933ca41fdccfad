package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Latency histograms bin log10(milliseconds) over [10µs, 100s] — 0.1
// decade per bin — so one fixed-size histogram resolves both
// microsecond cache hits and multi-second cold computations. The
// boundaries are part of the exposition contract (the capserver golden
// test locks them).
const (
	LatencyLogMin  = -2.0 // log10(ms): 10µs
	LatencyLogMax  = 5.0  // log10(ms): 100s
	LatencyLogBins = 70
)

// metricKind discriminates the registry's family types.
type metricKind int

const (
	counterKind metricKind = iota + 1
	gaugeKind
	gaugeFuncKind
	latencyKind
)

// labelSep joins label values into cell keys; label values containing
// it would collide, but every label value in this repository is an
// endpoint or status token.
const labelSep = "\x00"

// Registry is a race-safe set of named metric families with
// deterministic Prometheus-text exposition: families render in
// registration order and cells within a family in sorted label-value
// order, so two scrapes of identically-updated registries are
// byte-identical.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
	help     map[string]string
}

// family is one named metric with its cells (one per label-value
// tuple; a single anonymous cell when unlabeled).
type family struct {
	name   string
	kind   metricKind
	labels []string
	fn     func() int64 // gaugeFuncKind only, sampled at scrape

	mu    sync.Mutex
	cells map[string]*cell
}

// cell is one (family, label values) series.
type cell struct {
	values []string
	v      atomic.Int64

	histMu sync.Mutex
	hist   *stats.Histogram // latencyKind only
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family), help: make(map[string]string)}
}

// Help attaches HELP text to a family. Families with help render a
// `# HELP` / `# TYPE` comment pair before their samples, with the
// Prometheus text-format escaping for help strings (`\` and newline;
// quotes are NOT escaped in help text — that rule applies only to label
// values). Families without help render bare samples, exactly as every
// pre-existing exposition in this repository does, so attaching help to
// new families never perturbs golden-tested ones.
func (r *Registry) Help(name, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[name] = text
}

// register adds or retrieves a family, enforcing shape consistency:
// re-registering a name is allowed (components sharing a registry may
// race to declare the same series) but only with the identical kind
// and label names.
func (r *Registry) register(name string, kind metricKind, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || strings.Join(f.labels, labelSep) != strings.Join(labels, labelSep) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, kind: kind, labels: labels, cells: make(map[string]*cell)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// cell retrieves or creates the series for the given label values.
func (f *family) cell(values []string) *cell {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q got %d label values, want %d", f.name, len(values), len(f.labels)))
	}
	key := strings.Join(values, labelSep)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.cells[key]
	if !ok {
		c = &cell{values: append([]string(nil), values...)}
		if f.kind == latencyKind {
			// The range is static and valid, so the constructor cannot fail.
			c.hist, _ = stats.NewHistogram(LatencyLogMin, LatencyLogMax, LatencyLogBins)
		}
		f.cells[key] = c
	}
	return c
}

// peek retrieves the series without creating it (nil if absent), so
// read-backs do not materialize zero-valued series in the exposition.
func (f *family) peek(values []string) *cell {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cells[strings.Join(values, labelSep)]
}

// sorted returns the family's cells in sorted label-value order.
func (f *family) sorted() []*cell {
	f.mu.Lock()
	keys := make([]string, 0, len(f.cells))
	for k := range f.cells {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	cs := make([]*cell, len(keys))
	for i, k := range keys {
		cs[i] = f.cells[k]
	}
	f.mu.Unlock()
	return cs
}

// Counter is a monotone int64 series.
type Counter struct{ c *cell }

// Inc adds one.
func (c *Counter) Inc() { c.c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.c.v.Load() }

// Counter registers (or retrieves) an unlabeled counter.
func (r *Registry) Counter(name string) *Counter {
	return &Counter{c: r.register(name, counterKind, nil).cell(nil)}
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers (or retrieves) a counter family with the given
// label names.
func (r *Registry) CounterVec(name string, labels ...string) *CounterVec {
	return &CounterVec{f: r.register(name, counterKind, labels)}
}

// With returns the counter for the given label values, creating the
// series on first use.
func (v *CounterVec) With(values ...string) *Counter {
	return &Counter{c: v.f.cell(values)}
}

// Value returns the series' count without creating it (0 if absent).
func (v *CounterVec) Value(values ...string) int64 {
	if c := v.f.peek(values); c != nil {
		return c.v.Load()
	}
	return 0
}

// Gauge is a settable int64 series.
type Gauge struct{ c *cell }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.c.v.Store(n) }

// Add adjusts the value by n.
func (g *Gauge) Add(n int64) { g.c.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.c.v.Load() }

// Gauge registers (or retrieves) an unlabeled gauge.
func (r *Registry) Gauge(name string) *Gauge {
	return &Gauge{c: r.register(name, gaugeKind, nil).cell(nil)}
}

// GaugeVec is a labeled gauge family. Its first use in this repository
// is the capserver_build_info constant metric, which follows the
// Prometheus build-info convention: the interesting values live in the
// labels and the sample is pinned to 1.
type GaugeVec struct{ f *family }

// GaugeVec registers (or retrieves) a gauge family with the given
// label names.
func (r *Registry) GaugeVec(name string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, gaugeKind, labels)}
}

// With returns the gauge for the given label values, creating the
// series on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	return &Gauge{c: v.f.cell(values)}
}

// GaugeFunc registers a gauge whose value is sampled from fn at scrape
// time, for quantities owned elsewhere (queue depths, cache sizes).
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	f := r.register(name, gaugeFuncKind, nil)
	f.fn = fn
}

// LatencyVec is a labeled family of log10(ms)-bucketed latency
// histograms exposed as a count plus 0.5/0.9/0.99 quantiles.
type LatencyVec struct{ f *family }

// LatencyVec registers (or retrieves) a latency family keyed by one
// label.
func (r *Registry) LatencyVec(name, label string) *LatencyVec {
	return &LatencyVec{f: r.register(name, latencyKind, []string{label})}
}

// Latency is one series of a LatencyVec. A hot path resolves it once
// with With and observes through it without a label lookup.
type Latency struct{ c *cell }

// With returns the latency series for the label value, creating it on
// first use.
func (v *LatencyVec) With(value string) *Latency {
	return &Latency{c: v.f.cell([]string{value})}
}

// Observe records one duration for the given label value.
func (v *LatencyVec) Observe(value string, d time.Duration) { v.With(value).Observe(d) }

// Observe records one duration.
//
// Zero and negative durations (a cache hit timed at clock granularity)
// are clamped to the lowest bucket explicitly: feeding log10(0) = -Inf
// into bucket selection is exactly the failure mode the clamp guards
// against, and sub-lowest-edge positives clamp the same way.
func (l *Latency) Observe(d time.Duration) {
	c := l.c
	ms := float64(d) / float64(time.Millisecond)
	x := LatencyLogMin // lowest bucket
	if ms > 0 {
		x = math.Log10(ms) // Histogram.Add clamps both out-of-range sides
	}
	c.histMu.Lock()
	c.hist.Add(x)
	c.histMu.Unlock()
}

// Total returns the number of observations for the label value.
func (v *LatencyVec) Total(value string) int64 {
	c := v.f.peek([]string{value})
	if c == nil {
		return 0
	}
	c.histMu.Lock()
	defer c.histMu.Unlock()
	return int64(c.hist.Total())
}

// Quantile returns the q-th latency quantile in milliseconds for the
// label value, by the same upper-bin-edge rule the exposition uses
// (see quantileUpperMS, including its q<=0 / q>=1 / empty-histogram
// edge behavior). An absent series returns 0 without materializing it.
func (v *LatencyVec) Quantile(value string, q float64) float64 {
	c := v.f.peek([]string{value})
	if c == nil {
		return 0
	}
	c.histMu.Lock()
	counts, total := c.hist.Counts(), c.hist.Total()
	c.histMu.Unlock()
	return quantileUpperMS(counts, total, q)
}

// quantileUpperMS approximates the q-th latency quantile in
// milliseconds from the log-binned histogram (upper bin edge, a
// conservative estimate). Edge behavior, pinned by tests:
//
//   - an empty histogram returns 0 — no observations, no estimate;
//   - q <= 0 returns the upper edge of the first occupied bucket (the
//     smallest value the histogram can attribute any mass to — the
//     rank is clamped to the first observation, never "below" it);
//   - q >= 1 returns the upper edge of the last occupied bucket (q is
//     clamped to 1, so an out-of-range quantile never reports the
//     histogram's global upper bound when all mass sits lower).
func quantileUpperMS(counts []int, total int, q float64) float64 {
	if total == 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	target := int(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	cum := 0
	width := (LatencyLogMax - LatencyLogMin) / float64(len(counts))
	for i, c := range counts {
		cum += c
		if cum >= target {
			return math.Pow(10, LatencyLogMin+float64(i+1)*width)
		}
	}
	return math.Pow(10, LatencyLogMax)
}

// WriteProm renders the registry in flat Prometheus text format with
// deterministic line ordering: families in registration order, series
// within a family in sorted label-value order.
func (r *Registry) WriteProm(w io.Writer) {
	r.mu.Lock()
	families := append([]*family(nil), r.families...)
	help := make(map[string]string, len(r.help))
	for k, v := range r.help {
		help[k] = v
	}
	r.mu.Unlock()
	for _, f := range families {
		if h := help[f.name]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(h))
			fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind.promType())
		}
		switch f.kind {
		case counterKind, gaugeKind:
			for _, c := range f.sorted() {
				fmt.Fprintf(w, "%s%s %d\n", f.name, labelString(f.labels, c.values), c.v.Load())
			}
		case gaugeFuncKind:
			fmt.Fprintf(w, "%s %d\n", f.name, f.fn())
		case latencyKind:
			for _, c := range f.sorted() {
				c.histMu.Lock()
				counts, total := c.hist.Counts(), c.hist.Total()
				c.histMu.Unlock()
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, labelString(f.labels, c.values), total)
				for _, q := range []float64{0.5, 0.9, 0.99} {
					fmt.Fprintf(w, "%s{%s=\"%s\",quantile=\"%g\"} %.4g\n",
						f.name, f.labels[0], escapeLabelValue(c.values[0]), q, quantileUpperMS(counts, total, q))
				}
			}
		}
	}
}

// labelString renders {k1="v1",k2="v2"}, or "" when unlabeled, with
// the Prometheus text-format escaping for label values. Go's %q is
// deliberately NOT used here: it escapes tabs, control bytes and
// non-ASCII runes Go-style (\t, \u2028, ...), which the Prometheus
// format does not define — a scraper would read the backslash
// sequences literally. The format's own rule is minimal: exactly
// backslash, double-quote, and newline are escaped; every other byte
// (including raw UTF-8) passes through.
func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// labelEscaper implements the label-value escaping of the Prometheus
// text format version 0.0.4: `\` -> `\\`, `"` -> `\"`, newline -> `\n`.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// helpEscaper implements HELP-text escaping: only `\` and newline.
// Double quotes are legal raw in help text and escaping them would
// change the rendered documentation.
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeLabelValue escapes one label value for exposition.
func escapeLabelValue(v string) string { return labelEscaper.Replace(v) }

// escapeHelp escapes HELP text for exposition.
func escapeHelp(v string) string { return helpEscaper.Replace(v) }

// promType maps a family kind onto its # TYPE keyword. Latency
// families render as count + quantiles, which is the summary shape.
func (k metricKind) promType() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind, gaugeFuncKind:
		return "gauge"
	case latencyKind:
		return "summary"
	}
	return "untyped"
}

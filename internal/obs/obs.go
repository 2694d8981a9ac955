// Package obs is a dependency-free metrics toolkit for the engine: a
// named registry of atomic counters, gauges and fixed-bucket latency
// histograms, with a hand-rolled Prometheus text-format (version 0.0.4)
// encoder. It exists so every layer of the engine — core index builds,
// the collection's caches and fan-out pool, the HTTP surface — can
// report what it actually did without pulling a client library into the
// stdlib-only module.
//
// Metrics are created through a Registry and identified by (name, label
// set); creating the same metric twice returns the shared instance, so
// hot paths may look metrics up eagerly at construction time and then
// update them lock-free. All update operations (Inc, Add, Set, Observe)
// are atomic and safe for concurrent use; WritePrometheus may run
// concurrently with updates and observes a consistent-enough snapshot
// (each sample is individually atomic).
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one fixed key=value pair of a metric. Labels are bound at
// creation time; a metric family with dynamic label values is modeled by
// creating one child per value (the registry deduplicates).
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an integer value that can go up and down (queue depths,
// worker counts, corpus sizes).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in ascending order; the +Inf bucket is implicit. Observe is
// lock-free: one atomic add on the bucket counter, one on the total
// count and a CAS loop on the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last = +Inf overflow
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Buckets are few (typically ≤ 20); linear scan beats binary search
	// at this size and keeps the code obvious.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (clamped to [0, 1]) of the
// observed distribution by linear interpolation inside the bucket the
// rank lands in — the same estimate Prometheus's histogram_quantile
// gives. The bool is false when nothing has been observed. Ranks
// landing in the +Inf overflow bucket clamp to the highest finite
// bound.
func (h *Histogram) Quantile(q float64) (float64, bool) {
	total := h.count.Load()
	if total == 0 {
		return 0, false
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)
	var cum float64
	for i := range h.bounds {
		n := float64(h.counts[i].Load())
		cum += n
		if cum >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if n == 0 {
				return h.bounds[i], true
			}
			return lower + (h.bounds[i]-lower)*(rank-(cum-n))/n, true
		}
	}
	if len(h.bounds) == 0 {
		return 0, true
	}
	return h.bounds[len(h.bounds)-1], true
}

// LatencyBuckets is the default upper-bound set for query-latency
// histograms, in seconds: 10µs up to 10s, roughly 2.5× apart.
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// child is one (label set) member of a metric family. Exactly one of
// the value fields is set, matching the family kind; cf/gf are the
// function-backed variants sampled at scrape time.
type child struct {
	labels string // rendered `k="v",k2="v2"` (sorted, escaped) or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() float64
	gf     func() float64
}

type family struct {
	name, help string
	kind       metricKind
	children   map[string]*child
}

// Registry is a named set of metric families.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns (creating if needed) the family and the child for the
// label set. Registering the same name with a different kind panics:
// that is a programming error no caller can handle.
func (r *Registry) lookup(name, help string, kind metricKind, labels []Label) *child {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*child)}
		r.fams[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind, kind))
	}
	ch := f.children[ls]
	if ch == nil {
		ch = &child{labels: ls}
		f.children[ls] = ch
	}
	return ch
}

// Counter returns the counter for (name, labels), creating it on first
// use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	ch := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch.c == nil && ch.cf == nil {
		ch.c = &Counter{}
	}
	return ch.c
}

// CounterFunc registers a counter sampled by fn at scrape time. fn must
// be monotonic and safe for concurrent use (typically it reads an
// atomic counter owned by another package).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	ch := r.lookup(name, help, kindCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	ch.cf = fn
	ch.c = nil
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	ch := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch.g == nil && ch.gf == nil {
		ch.g = &Gauge{}
	}
	return ch.g
}

// GaugeFunc registers a gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	ch := r.lookup(name, help, kindGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	ch.gf = fn
	ch.g = nil
}

// Histogram returns the histogram for (name, labels) with the given
// upper bounds (ascending; +Inf implicit), creating it on first use.
// Subsequent calls for the same metric ignore the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	ch := r.lookup(name, help, kindHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if ch.h == nil {
		h := &Histogram{bounds: append([]float64(nil), bounds...)}
		h.counts = make([]atomic.Uint64, len(h.bounds)+1)
		ch.h = h
	}
	return ch.h
}

// renderLabels renders a label set in sorted-key order with Prometheus
// escaping, without the surrounding braces.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func (ch *child) scalar() float64 {
	switch {
	case ch.c != nil:
		return float64(ch.c.Value())
	case ch.cf != nil:
		return ch.cf()
	case ch.g != nil:
		return float64(ch.g.Value())
	case ch.gf != nil:
		return ch.gf()
	}
	return 0
}

// WritePrometheus encodes every metric in the Prometheus text exposition
// format (version 0.0.4): # HELP and # TYPE headers followed by the
// samples, families sorted by name, children by label signature.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	kids := make(map[*family][]*child, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
		cs := make([]*child, 0, len(f.children))
		for _, ch := range f.children {
			cs = append(cs, ch)
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].labels < cs[j].labels })
		kids[f] = cs
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range kids[f] {
			if f.kind == kindHistogram {
				writeHistogram(&b, f.name, ch)
				continue
			}
			writeSample(&b, f.name, ch.labels, ch.scalar())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func writeHistogram(b *strings.Builder, name string, ch *child) {
	h := ch.h
	if h == nil {
		return
	}
	// Cumulative bucket counts. Reading the per-bucket atomics while
	// observations race can momentarily undercount relative to _count;
	// the +Inf bucket is therefore emitted as _count itself, keeping the
	// invariant bucket{+Inf} == count that scrapers check.
	cum := uint64(0)
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		writeSample(b, name+"_bucket", joinLabels(ch.labels, `le="`+formatFloat(ub)+`"`), float64(cum))
	}
	count := h.Count()
	if c := cum + h.counts[len(h.bounds)].Load(); c > count {
		count = c
	}
	writeSample(b, name+"_bucket", joinLabels(ch.labels, `le="+Inf"`), float64(count))
	writeSample(b, name+"_sum", ch.labels, h.Sum())
	writeSample(b, name+"_count", ch.labels, float64(count))
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// Quantile estimates the q-quantile of the unlabeled histogram
// registered under name (see Histogram.Quantile). The bool is false
// when no such histogram exists or it has no observations; the
// registry is not modified either way.
func (r *Registry) Quantile(name string, q float64) (float64, bool) {
	r.mu.Lock()
	var h *Histogram
	if f := r.fams[name]; f != nil && f.kind == kindHistogram {
		if ch := f.children[""]; ch != nil {
			h = ch.h
		}
	}
	r.mu.Unlock()
	if h == nil {
		return 0, false
	}
	return h.Quantile(q)
}

// Snapshot flattens every scalar metric into a map keyed by
// "name{labels}" ("name" when unlabeled); histograms contribute
// "_count" and "_sum" entries. Intended for tests and tooling that want
// values without parsing the exposition format.
func (r *Registry) Snapshot() map[string]float64 {
	r.mu.Lock()
	type item struct {
		f  *family
		ch *child
	}
	var items []item
	for _, f := range r.fams {
		for _, ch := range f.children {
			items = append(items, item{f, ch})
		}
	}
	r.mu.Unlock()

	out := make(map[string]float64, len(items))
	key := func(name, labels string) string {
		if labels == "" {
			return name
		}
		return name + "{" + labels + "}"
	}
	for _, it := range items {
		if it.f.kind == kindHistogram {
			if it.ch.h != nil {
				out[key(it.f.name+"_count", it.ch.labels)] = float64(it.ch.h.Count())
				out[key(it.f.name+"_sum", it.ch.labels)] = it.ch.h.Sum()
			}
			continue
		}
		out[key(it.f.name, it.ch.labels)] = it.ch.scalar()
	}
	return out
}

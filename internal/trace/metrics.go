package trace

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a process-local metrics store: named counters and
// duration histograms, all atomics so hot-path updates never contend on
// a lock. A nil *Registry (the disabled tracer's) accepts every call:
// lookups return nil and the instruments' own methods are nil-safe, so
// `tr.Metrics().Counter("x").Add(1)` is a no-op chain when tracing is
// off.
type Registry struct {
	mu     sync.Mutex
	ctrs   map[string]*Counter
	histos map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		ctrs:   map[string]*Counter{},
		histos: map[string]*Histogram{},
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.ctrs[name]
	if c == nil {
		c = &Counter{}
		r.ctrs[name] = c
	}
	return c
}

// Histogram returns (creating if needed) the named duration histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.histos[name]
	if h == nil {
		h = &Histogram{}
		r.histos[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (no-op on nil).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current value (0 on nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// histoBuckets is the bucket count of a Histogram: exponential,
// base-2, in microseconds. Bucket i holds observations with
// 2^(i-1) ≤ µs < 2^i (bucket 0 is sub-microsecond), so 48 buckets span
// from under a microsecond past 89 years — every duration lands.
const histoBuckets = 48

// Histogram is a fixed-bucket exponential latency histogram. Observe is
// lock-free; Snapshot and the quantile estimators are approximate to
// within one power-of-two bucket, which is all a dispatch-latency or
// node-wall distribution needs.
type Histogram struct {
	count   atomic.Int64
	sumUS   atomic.Int64
	buckets [histoBuckets]atomic.Int64
}

// bucketFor maps a duration to its bucket index.
func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	idx := bits.Len64(uint64(us))
	if idx >= histoBuckets {
		idx = histoBuckets - 1
	}
	return idx
}

// bucketUpperUS is the exclusive upper bound of bucket i in µs.
func bucketUpperUS(i int) int64 {
	if i >= 63 {
		return int64(1) << 62
	}
	return int64(1) << i
}

// Observe records one duration (no-op on nil).
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.count.Add(1)
	us := d.Microseconds()
	if us > 0 {
		h.sumUS.Add(us)
	}
	h.buckets[bucketFor(d)].Add(1)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-th quantile (0 < q ≤ 1) in microseconds by
// linear interpolation within the winning bucket.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q*float64(total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := 0; i < histoBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo := int64(0)
			if i > 0 {
				lo = bucketUpperUS(i - 1)
			}
			hi := bucketUpperUS(i)
			frac := float64(rank-seen) / float64(n)
			return lo + int64(frac*float64(hi-lo))
		}
		seen += n
	}
	return bucketUpperUS(histoBuckets - 1)
}

// snapshot renders the registry as export records, sorted by name for
// deterministic output.
func (r *Registry) snapshot() []MetricRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []MetricRecord
	for name, c := range r.ctrs {
		out = append(out, MetricRecord{Type: "metric", Metric: "counter", Name: name, Value: float64(c.Load())})
	}
	for name, h := range r.histos {
		rec := MetricRecord{
			Type: "metric", Metric: "histogram", Name: name,
			Count: h.count.Load(), SumUS: h.sumUS.Load(),
			P50US: h.Quantile(0.50), P95US: h.Quantile(0.95), P99US: h.Quantile(0.99),
		}
		for i := 0; i < histoBuckets; i++ {
			if n := h.buckets[i].Load(); n > 0 {
				rec.Buckets = append(rec.Buckets, HistoBucket{UpperUS: bucketUpperUS(i), Count: n})
			}
		}
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Metric != out[j].Metric {
			return out[i].Metric < out[j].Metric
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Canonical metric names, shared by the shell and the renderers so the
// two sides never drift.
const (
	MetricPlansTotal      = "plans_total"
	MetricPlansOptimized  = "plans_optimized"
	MetricPlansInterp     = "plans_interpreted"
	MetricHazardRejects   = "hazard_rejects"
	MetricFallbacks       = "fallbacks"
	MetricQuarantined     = "quarantined"
	MetricListParallel    = "list_parallel_stmts"
	MetricConcretized     = "concretized_words"
	MetricNodesTotal      = "nodes_total"
	MetricBytesMoved      = "bytes_moved"
	MetricSinkBytes       = "sink_bytes"
	MetricModelledUS      = "modelled_us"
	MetricDispatchLatency = "dispatch_latency_us"
	MetricNodeWall        = "node_wall_us"
)

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// spec declares one reported metric. The two tables below are the
// single source of truth for BENCHMARK.json's "end_to_end" and
// "per_layer" lists; TestMetricsMatchBenchmarkJSON keeps them in step.
type spec struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression (unused
	// for per-layer metrics).
	Bound float64
}

// endToEnd lists the metrics every workload prints with --trace 0.
var endToEnd = []spec{
	{"setup_s", "s", "lower", 0.25},
	{"pages_per_s", "1/s", "higher", 0.25},
	{"latency_ms", "ms", "lower", 0.25},
	{"f_score", "frac", "higher", 0.02},
	{"success_frac", "frac", "higher", 0.01},
	{"alloc_mb_per_page", "MB", "lower", 0.25},
	{"allocs_per_page", "count", "lower", 0.25},
	{"peak_mem_mb", "MB", "lower", 0.25},
}

// perLayer lists the metrics every workload prints with --trace 1. A
// value of 0 means the layer did no work on the workload (csp on
// largepage) or the quantity is undefined there (server metrics
// outside daemon); the human-readable lines say which.
var perLayer = []spec{
	{Name: "csp.self_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "csp.wsat_flips_per_page", Unit: "count", Better: "lower"},
	{Name: "csp.wsat_restarts_per_page", Unit: "count", Better: "lower"},
	{Name: "csp.cut_rounds_per_page", Unit: "count", Better: "lower"},
	{Name: "csp.ns_per_flip", Unit: "ns", Better: "lower"},
	{Name: "csp.relaxed_frac", Unit: "frac", Better: "lower"},
	{Name: "phmm.self_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "phmm.em_iters_per_page", Unit: "count", Better: "lower"},
	{Name: "phmm.ms_per_em_iter", Unit: "ms", Better: "lower"},
	{Name: "phmm.lattice_cells_per_iter", Unit: "count", Better: "lower"},
	{Name: "phmm.ns_per_cell", Unit: "ns", Better: "lower"},
	{Name: "token.self_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "token.pages_lexed_per_task", Unit: "count", Better: "lower"},
	{Name: "pagetemplate.self_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "pagetemplate.whole_page_frac", Unit: "frac", Better: "lower"},
	{Name: "extract.self_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "extract.retry_frac", Unit: "frac", Better: "lower"},
	{Name: "stage.postprocess_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "engine.prep_ms_per_page", Unit: "ms", Better: "lower"},
	{Name: "engine.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "engine.busy_frac", Unit: "frac", Better: "lower"},
	{Name: "engine.token_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "engine.template_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "artifact.mem_hit_ratio", Unit: "frac", Better: "higher"},
	{Name: "artifact.mem_puts_per_page", Unit: "count", Better: "lower"},
	{Name: "artifact.mem_evictions_per_page", Unit: "count", Better: "lower"},
	{Name: "artifact.mem_resident_mb", Unit: "MB", Better: "lower"},
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.coalesced_frac", Unit: "frac", Better: "higher"},
	{Name: "server.rejected_frac", Unit: "frac", Better: "lower"},
	{Name: "apiv1.request_kb", Unit: "KB", Better: "lower"},
	{Name: "apiv1.encode_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "apiv1.decode_ms_per_req", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles_per_page", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.solver_share", Unit: "frac", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fill builds the metrics map for specs from values, which must hold
// every spec's name; a missing value is a bug in the workload.
func fill(specs []spec, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// sorted, and ok=false when fewer than minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if n-k < minBeyond {
		return 0, false
	}
	return sorted[k-1], true
}

// latencies is a set of per-operation timings in milliseconds.
type latencies []float64

func (l latencies) sorted() []float64 {
	s := append([]float64(nil), l...)
	sort.Float64s(s)
	return s
}

func (l latencies) mean() float64 {
	if len(l) == 0 {
		return 0
	}
	var sum float64
	for _, v := range l {
		sum += v
	}
	return sum / float64(len(l))
}

// describe renders p50/p90/p99 under the percentile rule, with the
// sample count, for the human-readable report.
func (l latencies) describe() string {
	s := l.sorted()
	out := fmt.Sprintf("n=%d mean=%.3fms", len(s), l.mean())
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		if v, ok := percentile(s, p.q); ok {
			out += fmt.Sprintf(" %s=%.3fms", p.name, v)
		} else {
			out += fmt.Sprintf(" %s=n/a(<%d beyond)", p.name, minBeyond)
		}
	}
	return out
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := latencies(v).sorted()
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0 (the layer did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// stageSpan is one stage.Observer callback: a stage that ended at End
// after running for Dur. Engine observers are shared by concurrent
// tasks and carry no task identity, so these spans form the process's
// stage timeline; per-task attribution comes from TaskStats.Stages.
type stageSpan struct {
	Stage string        `json:"stage"`
	End   time.Duration `json:"end_ns"`
	Dur   time.Duration `json:"dur_ns"`
	Err   bool          `json:"err,omitempty"`
}

// recorder keeps spans in memory until the run ends. It implements
// stage.Observer and is safe for concurrent use. While on is false it
// drops callbacks, so one long-lived engine can alternate traced and
// untraced windows.
type recorder struct {
	start time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []stageSpan
}

func newRecorder() *recorder {
	r := &recorder{start: time.Now()}
	r.on.Store(true)
	return r
}

func (r *recorder) OnStageStart(string) {}

func (r *recorder) OnStageEnd(name string, dur time.Duration, err error) {
	if !r.on.Load() {
		return
	}
	end := time.Since(r.start)
	r.mu.Lock()
	r.spans = append(r.spans, stageSpan{Stage: name, End: end, Dur: dur, Err: err != nil})
	r.mu.Unlock()
}

func (r *recorder) stageSpans() []stageSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]stageSpan(nil), r.spans...)
}

// taskSpan is one task's span as written to the trace file.
type taskSpan struct {
	Task      int         `json:"task"`
	ID        string      `json:"id,omitempty"`
	Method    string      `json:"method"`
	LatencyMS float64     `json:"latency_ms"`
	WallMS    float64     `json:"wall_ms"`
	Stages    []spanStage `json:"stages"`
}

// spanStage is one stage's aggregated time within a task span.
type spanStage struct {
	Stage string  `json:"stage"`
	Calls int     `json:"calls"`
	MS    float64 `json:"ms"`
}

// writeTrace writes the host stamp, every task span and every stage
// span as JSON lines to path.
func writeTrace(path string, h host, tasks []taskRecord, stages []stageSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("creating trace dir: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating trace: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"host": h}); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	for i := range tasks {
		t := &tasks[i]
		ts := taskSpan{Task: i, ID: t.id, Method: t.method.String(), LatencyMS: ms(t.latency), WallMS: ms(t.wall)}
		for _, s := range t.stages {
			ts.Stages = append(ts.Stages, spanStage{s.Name, s.Calls, ms(s.Duration)})
		}
		if err := enc.Encode(map[string]any{"task": ts}); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	for _, s := range stages {
		if err := enc.Encode(map[string]any{"span": s}); err != nil {
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// memWatch polls runtime/metrics until stopped. It keeps the Go
// runtime's resident memory — mapped memory not yet returned to the OS
// — peaking since the last mark, so a run can take the peak of each
// unit of work (a pass, a page) and report their median, which set-up
// garbage and one-off spikes do not move. It also keeps the heap's
// peak and the GC counters the traced run reports.
type memWatch struct {
	before   []metrics.Sample
	peak     atomic.Uint64 // resident bytes since the last mark
	heapPeak atomic.Uint64 // heap object bytes since the start
	stop     chan struct{}
	done     chan struct{}
}

// watched are the runtime/metrics the watch reads, in this order.
var watched = []string{
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
	"/memory/classes/heap/objects:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readWatched() []metrics.Sample {
	s := make([]metrics.Sample, len(watched))
	for i, name := range watched {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

func sampleFloat(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

func startMemWatch(period time.Duration) *memWatch {
	w := &memWatch{before: readWatched(), stop: make(chan struct{}), done: make(chan struct{})}
	w.observe()
	go func() {
		defer close(w.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				w.observe()
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

func raise(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (w *memWatch) observe() uint64 {
	s := readWatched()
	resident := s[0].Value.Uint64() - s[1].Value.Uint64()
	raise(&w.peak, resident)
	raise(&w.heapPeak, s[2].Value.Uint64())
	return resident
}

// mark returns the resident peak in MB since the previous mark and
// starts a new unit.
func (w *memWatch) mark() float64 {
	return float64(w.peak.Swap(w.observe())) / 1e6
}

// Stop ends polling and waits for the poller to exit.
func (w *memWatch) Stop() {
	close(w.stop)
	<-w.done
}

// runtimeStats is what the watch saw since it started.
type runtimeStats struct {
	gcCycles   float64
	gcCPUFrac  float64
	heapPeakMB float64
}

func (w *memWatch) runtimeStats() runtimeStats {
	w.observe()
	after := readWatched()
	delta := func(i int) float64 { return sampleFloat(after[i]) - sampleFloat(w.before[i]) }
	return runtimeStats{
		gcCycles:   delta(3),
		gcCPUFrac:  ratio(delta(4), delta(5)),
		heapPeakMB: float64(w.heapPeak.Load()) / 1e6,
	}
}

// finishTrace checks the span invariant, writes the spans and reports
// the tracing overhead.
func finishTrace(cfg runConfig, rep *report, tasks []taskRecord, rec *recorder, traced, plain latencies) error {
	if v := spanViolations(tasks); v > 0 {
		rep.failed += int64(v)
		rep.say("FAIL %d task spans have stage spans summing past the task span", v)
	}
	spans := rec.stageSpans()
	if err := writeTrace(cfg.traceOut, cfg.host, tasks, spans); err != nil {
		return err
	}
	rep.say("traced %d tasks, %d stage spans -> %s", len(tasks), len(spans), cfg.traceOut)
	rep.say("tracing overhead: traced unit median %.3fms vs untraced %.3fms over %d/%d interleaved units", median(traced), median(plain), len(traced), len(plain))
	m := rep.values
	front := m["token.self_ms_per_page"] + m["pagetemplate.self_ms_per_page"] + m["extract.self_ms_per_page"] + m["stage.postprocess_ms_per_page"]
	rep.say("layers per page: csp %.3fms, phmm %.3fms, front end %.3fms, engine prep %.3fms; Segment is %.0f%% of the median task",
		m["csp.self_ms_per_page"], m["phmm.self_ms_per_page"], front, m["engine.prep_ms_per_page"], 100*m["trace.solver_share"])
	return nil
}

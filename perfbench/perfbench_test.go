package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/core"
	"tableseg/internal/eval"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
)

// The tests run in perfbench/, one level below the repository root.
func TestMain(m *testing.M) {
	repoRoot = ".."
	os.Exit(m.Run())
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		p      float64
		n      int
		ok     bool
		expect float64
	}{
		{0.50, 19, false, 0},
		{0.50, 20, true, 10},
		{0.90, 99, false, 0},
		{0.90, 100, true, 90},
		{0.99, 999, false, 0},
		{0.99, 1000, true, 990},
		{0.99, 1, false, 0},
		{0.50, 0, false, 0},
	} {
		v, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || v != c.expect {
			t.Errorf("percentile(p=%v, n=%d) = %v, %v; want %v, %v", c.p, c.n, v, ok, c.expect, c.ok)
		}
		if ok {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < minBeyond {
				t.Errorf("p=%v n=%d reported with %d samples beyond", c.p, c.n, beyond)
			}
		}
	}
	if got := latencies(seq(50)).describe(); !regexp.MustCompile(`n=50 .*p50=25\.000ms p90=n/a.*p99=n/a`).MatchString(got) {
		t.Errorf("describe = %q", got)
	}
}

// A request that stalls the only worker charges its wait to every
// request due after it: their latencies run from when they were due.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 80 * time.Millisecond
	sched := []arrival{{Due: 0}, {Due: 10 * time.Millisecond}, {Due: 20 * time.Millisecond}, {Due: 30 * time.Millisecond}}
	lr := openLoop(context.Background(), sched, 1, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	for i, s := range lr.samples {
		if s.Err != nil {
			t.Fatalf("sample %d: %v", i, s.Err)
		}
		if i == 0 {
			continue
		}
		if want := stall - s.Due; s.latency() < want || s.late() < want {
			t.Errorf("sample %d due %v: latency %v late %v, want both >= %v", i, s.Due, s.latency(), s.late(), want)
		}
	}
	if lr.backlogMax < 2 {
		t.Errorf("backlogMax = %d, want >= 2 (three requests waited behind the stall)", lr.backlogMax)
	}
}

// With a spare worker, a stall delays nobody else.
func TestOpenLoopSpareWorker(t *testing.T) {
	sched := []arrival{{Due: 0}, {Due: 20 * time.Millisecond}}
	lr := openLoop(context.Background(), sched, 2, func(_ context.Context, i int) error {
		if i == 0 {
			time.Sleep(100 * time.Millisecond)
		}
		return nil
	})
	if l := lr.samples[1].latency(); l > 60*time.Millisecond {
		t.Errorf("second request latency %v despite an idle worker", l)
	}
}

// The closed loop keeps exactly `workers` requests outstanding, takes
// no new one after its time is up, and keeps every request's error.
func TestClosedLoop(t *testing.T) {
	var inFlight, most atomic.Int64
	lr := closedLoop(context.Background(), 1000, 2, 100*time.Millisecond, func(_ context.Context, i int) error {
		n := inFlight.Add(1)
		defer inFlight.Add(-1)
		for cur := most.Load(); n > cur && !most.CompareAndSwap(cur, n); cur = most.Load() {
		}
		time.Sleep(10 * time.Millisecond)
		if i%3 == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if most.Load() != 2 {
		t.Errorf("at most %d requests outstanding, want 2", most.Load())
	}
	if n := len(lr.samples); n < 10 || n > 22 {
		t.Errorf("%d requests in 100ms at 10ms each from 2 workers", n)
	}
	if lr.elapsed < 100*time.Millisecond {
		t.Errorf("elapsed %v before the time was up", lr.elapsed)
	}
	for i, s := range lr.samples {
		if s.Input != i || (s.Err != nil) != (i%3 == 0) || s.Sent >= 100*time.Millisecond {
			t.Errorf("sample %d: %+v", i, s)
		}
	}
	if lr := closedLoop(context.Background(), 3, 2, time.Hour, func(context.Context, int) error { return nil }); len(lr.samples) != 3 {
		t.Errorf("%d requests sent of 3", len(lr.samples))
	}
}

func TestRateSchedule(t *testing.T) {
	sched := rateSchedule([]float64{100, 200}, 4, func(step int) []int {
		if step == 1 {
			return []int{7, 7}
		}
		return []int{1}
	})
	var dues []time.Duration
	for _, a := range sched {
		dues = append(dues, a.Due)
	}
	want := []time.Duration{0, 10, 20, 30, 40, 40, 45, 45}
	for i := range want {
		want[i] *= time.Millisecond
	}
	if len(dues) != len(want) {
		t.Fatalf("dues %v, want %v", dues, want)
	}
	for i := range want {
		if dues[i] != want[i] {
			t.Fatalf("dues %v, want %v", dues, want)
		}
	}
	if !sort.SliceIsSorted(sched, func(i, j int) bool { return sched[i].Due < sched[j].Due }) {
		t.Error("schedule not in due order")
	}
}

// Refused and timed-out requests are errors, and an error fails its
// rate step and counts as an infinitely late request; a typed failure
// counts as correct only where the reference run failed the same way.
func TestRefusalsAndTimeoutsFail(t *testing.T) {
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":{"code":"queue_full"}}`, http.StatusTooManyRequests)
	}))
	defer refuse.Close()
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer slow.Close()
	defer close(release)

	unsat := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(apiv1.ErrorResponse{Error: &apiv1.Error{Code: apiv1.CodeCSPUnsatisfiable}})
	}))
	defer unsat.Close()
	// A typed failure passes only when the reference run failed the
	// same way.
	d := &daemon{url: unsat.URL, client: &http.Client{Timeout: time.Second}}
	if _, err := d.post(context.Background(), &request{wantCode: apiv1.CodeCSPUnsatisfiable}); err != nil {
		t.Errorf("expected typed failure: %v", err)
	}
	if _, err := d.post(context.Background(), &request{}); err == nil {
		t.Error("unexpected typed failure passed")
	}
	d.client.CloseIdleConnections()
	j := job{id: "p", wantCode: apiv1.CodeCSPUnsatisfiable, want: eval.Counts{FN: 2}, truth: make([]sitegen.TruthRecord, 2)}
	if _, err := j.check(nil, fmt.Errorf("wrapped: %w", core.ErrCSPUnsatisfiable)); err != nil {
		t.Errorf("expected typed failure: %v", err)
	}
	if _, err := j.check(&core.Segmentation{}, nil); err == nil {
		t.Error("success where the reference failed passed")
	}

	for name, url := range map[string]string{"refusal": refuse.URL, "timeout": slow.URL} {
		d := &daemon{url: url, client: &http.Client{Timeout: 50 * time.Millisecond}}
		if _, err := d.post(context.Background(), &request{body: []byte(`{}`)}); err == nil {
			t.Errorf("%s: post succeeded", name)
		}
		d.client.CloseIdleConnections()
	}

	samples := []sample{
		{arrival: arrival{Step: 0}, Done: time.Millisecond},
		{arrival: arrival{Step: 1}, Done: time.Millisecond, Err: errors.New("status 429")},
	}
	for i := 0; i < 2000; i++ {
		samples = append(samples, sample{arrival: arrival{Step: i % 2}, Done: time.Millisecond})
	}
	steps := judgeSteps([]float64{10, 20}, samples, 25*time.Millisecond)
	if !steps[0].meets || steps[0].failed != 0 {
		t.Errorf("clean step: %+v", steps[0])
	}
	if steps[1].meets || steps[1].failed != 1 || !math.IsInf(steps[1].lat.sorted()[len(steps[1].lat)-1], 1) {
		t.Errorf("step with a refusal: meets=%v failed=%d", steps[1].meets, steps[1].failed)
	}
	if got := sloRate(steps); got != 10 {
		t.Errorf("sloRate = %v, want 10", got)
	}
	if lr := openLoop(context.Background(), []arrival{{}}, 1, func(context.Context, int) error { return errors.New("refused") }); lr.samples[0].Err == nil {
		t.Error("openLoop dropped the request's error")
	}
}

// Per-task stage spans, measured inside the pipeline, never sum past
// the task span the caller measured around it.
func TestStageSpansWithinTaskSpan(t *testing.T) {
	p, err := sitegen.ProfileBySlug("allegheny")
	if err != nil {
		t.Fatal(err)
	}
	site := sitegen.Generate(p, 7)
	var jobs []job
	for pageIdx := range site.Lists {
		for _, m := range []core.Method{core.Probabilistic, core.CSP} {
			jobs = append(jobs, referenceJob("allegheny", experiments.BuildInput(site, pageIdx), core.DefaultOptions(m), site.Lists[pageIdx].Truth))
		}
	}
	rec := newRecorder()
	outs, _, _, err := table4Pass(jobs, rec)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []taskRecord
	for i, o := range outs {
		if _, err := jobs[i].check(o.res.Seg, o.res.Err); err != nil {
			t.Fatal(err)
		}
		st := o.res.Stats
		tasks = append(tasks, recordFromStats(jobs[i].opts.Method, o.latency, st.Wall, &st.Stats, o.res.Seg))
	}
	if v := spanViolations(tasks); v != 0 {
		t.Errorf("%d tasks have stage spans past their task span", v)
	}
	if spans := rec.stageSpans(); len(spans) < len(stage.Names())*len(jobs)-len(jobs) {
		t.Errorf("recorded %d stage spans for %d tasks", len(spans), len(jobs))
	}
	bad := taskRecord{latency: 2 * time.Millisecond, wall: time.Millisecond,
		stages: []core.StageTiming{{Name: stage.StageSegment, Duration: 2 * time.Millisecond}}}
	if spanViolations([]taskRecord{bad}) != 1 {
		t.Error("stage spans summing past the task span went unnoticed")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the metric tables agree, and every name is legal.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	for _, c := range []struct {
		name      string
		json, tbl []spec
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.tbl) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", c.name, len(c.json), len(c.tbl))
			continue
		}
		for i := range c.tbl {
			if c.json[i] != c.tbl[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", c.name, i, c.json[i], c.tbl[i])
			}
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		if !nameRE.MatchString(s.Name) || seen[s.Name] {
			t.Errorf("metric name %q is illegal or repeated", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %s: better = %q", s.Name, s.Better)
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

// The committed results/table4.txt parses to the study's 48 counts, and
// the pipeline reproduces it at the golden seed.
func TestGoldenTable4(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join(repoRoot, goldenTable4))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := parseGoldenTable4(string(committed))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 48 {
		t.Fatalf("parsed %d counts, want 48", len(rows))
	}
	jobs, err := table4Jobs(goldenSeed)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		seg, err := core.SegmentContext(context.Background(), jobs[i].in, *jobs[i].opts)
		if _, err := jobs[i].check(seg, err); err != nil {
			t.Error(err)
		}
	}
}

// Calibration must not touch the Go heap, or it would move the
// program's collector and memory metrics.
func TestCalibrationStaysOffHeap(t *testing.T) {
	c, err := newCalibrator(1)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1, func() { calibWork(c.bufs[0], 1) }); a != 0 {
		t.Errorf("calibWork allocates %v times per run, want 0", a)
	}
	// The work is fixed: the same seed gives the same result.
	if x, y := calibWork(c.bufs[0], 7), calibWork(c.bufs[0], 7); x != y {
		t.Errorf("calibWork(7) gave %v, then %v", x, y)
	}
}

// A run whose set-up ran three times as slow as the reference machine
// and whose window ran twice as slow reports a third of its raw set-up
// time, half its raw latency and twice its raw rate; a traced run (no
// calibrator) reports them as measured.
func TestCalibrateScalesTimings(t *testing.T) {
	c := &calibrator{setup: latencies{3 * calibRefMs, 2 * calibRefMs, 4 * calibRefMs}, window: latencies{3 * calibRefMs, 2 * calibRefMs, 2 * calibRefMs}}
	v := map[string]float64{"setup_s": 6, "latency_ms": 10, "pages_per_s": 50, "f_score": 0.9}
	su, win := c.scales()
	calibrate(v, su, win)
	want := map[string]float64{"setup_s": 2, "latency_ms": 5, "pages_per_s": 100, "f_score": 0.9}
	for k, w := range want {
		if v[k] != w {
			t.Errorf("%s = %v, want %v", k, v[k], w)
		}
	}
	var none *calibrator
	none.sample()
	if su, win = none.scales(); su != 1 || win != 1 {
		t.Errorf("scales without a calibrator = %v, %v, want 1, 1", su, win)
	}
}

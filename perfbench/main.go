// Command perfbench is the repository's benchmark. It generates its
// inputs from internal/sitegen with the given seed, drives one workload
// through the public entry points (engine.Submit, core.SegmentEnv and
// the tablesegd handler on loopback), checks every output, and prints
// its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload table4 --seed 42 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written under .bench_build/traces/. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tableseg/internal/eval"
)

// heldOutSeed is reserved for confirming a performance claim: a change
// that claims a gain must also show it at this seed, which is not used
// while the change is written.
const heldOutSeed = 20041

// setupRuns is how many times each run sets its workload up; setup_s
// reports the median.
const setupRuns = 3

// repoRoot is the repository root the benchmark runs from.
var repoRoot = "."

// concurrency is the engine's worker count and the load generator's
// connection count: the box's two CPUs.
const concurrency = 2

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	dur      time.Duration
	trace    bool
	traceOut string
	host     host
	// cal times the calibration work of an untraced run; nil for a
	// traced run.
	cal *calibrator
}

// report is a workload's outcome before it is rendered.
type report struct {
	attempted, failed int64
	// values holds the end-to-end metrics (untraced) or the per-layer
	// metrics (traced).
	values map[string]float64
	// lines are human-readable findings printed before the result.
	lines []string
}

func (r *report) say(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// workload is one of the benchmark's workloads.
type workload struct {
	run func(runConfig) (*report, error)
	// threads is how many CPUs the workload keeps busy, and so how many
	// goroutines its calibration runs on.
	threads int
}

var workloads = map[string]workload{
	"table4":    {runTable4, concurrency},
	"largepage": {runLargePage, 1},
	"daemon":    {runDaemon, concurrency},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: table4, largepage or daemon")
	seed := fs.Int64("seed", 42, "input generation seed")
	seconds := fs.Int("seconds", 30, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload table4|largepage|daemon, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	cfg := runConfig{
		seed:     *seed,
		dur:      time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		traceOut: filepath.Join(repoRoot, ".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed)),
		host:     stampHost(repoRoot),
	}
	if !cfg.trace {
		var err error
		if cfg.cal, err = newCalibrator(wl.threads); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	stamp, _ := json.Marshal(cfg.host) // strings and ints always encode
	fmt.Printf("# host %s\n", stamp)
	fmt.Printf("# workload=%s seed=%d seconds=%d trace=%d held-out-seed=%d\n", *workload, *seed, *seconds, *trace, heldOutSeed)

	rep, err := wl.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	} else {
		rep.say("raw timings: setup_s=%.6g pages_per_s=%.6g latency_ms=%.6g; %s", rep.values["setup_s"], rep.values["pages_per_s"], rep.values["latency_ms"], cfg.cal.describe())
		setupScale, windowScale := cfg.cal.scales()
		calibrate(rep.values, setupScale, windowScale)
	}
	vals, err := fill(specs, rep.values)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Printf("# %s\n", l)
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("# %-34s %14.6g %s\n", n, vals[n].Value, vals[n].Unit)
	}
	out, err := json.Marshal(result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   vals,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// repeatSetup runs setup setupRuns times, timing each, and keeps the
// last state: each call's cleanup (of the previous state) and a
// calibration run outside the timed window.
func repeatSetup(cal *calibrator, setup func() (cleanup func(), err error)) (median time.Duration, cleanup func(), err error) {
	var times []time.Duration
	cleanup = func() {}
	for i := 0; i < setupRuns; i++ {
		cleanup()
		runtime.GC()
		cal.sample()
		start := time.Now()
		c, err := setup()
		times = append(times, time.Since(start))
		if err != nil {
			return 0, func() {}, err
		}
		cleanup = c
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return times[len(times)/2], cleanup, nil
}

// e2e accumulates one measurement window.
type e2e struct {
	setup             time.Duration
	cal               *calibrator
	calBefore         time.Duration // cal.spent when the window began
	start             time.Time
	elapsed           time.Duration
	mem               runtime.MemStats
	watch             *memWatch
	unitPeaks         latencies // peak resident MB of each unit of work
	lat               latencies
	attempted, failed int64
	counts            eval.Counts
}

// begin starts the measurement window from a collected heap. The
// caller stops e.watch when the window's work is done.
func (e *e2e) begin() {
	runtime.GC()
	e.cal.startWindow()
	e.cal.sample()
	if e.cal != nil {
		e.calBefore = e.cal.spent
	}
	runtime.ReadMemStats(&e.mem)
	e.watch = startMemWatch(5 * time.Millisecond)
	e.start = time.Now()
}

// unitDone closes one unit of work (a pass, a page) for peak_mem_mb
// and calibrates.
func (e *e2e) unitDone() {
	e.unitPeaks = append(e.unitPeaks, e.watch.mark())
	e.cal.sample()
}

// end closes the window and returns the end-to-end metrics. The
// window's elapsed time leaves out the calibrations inside it.
func (e *e2e) end() map[string]float64 {
	e.elapsed = time.Since(e.start)
	if e.cal != nil {
		e.elapsed -= e.cal.spent - e.calBefore
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	pages := float64(e.attempted)
	ok := float64(e.attempted - e.failed)
	return map[string]float64{
		"setup_s":           e.setup.Seconds(),
		"pages_per_s":       ok / e.elapsed.Seconds(),
		"latency_ms":        e.lat.mean(),
		"f_score":           e.counts.F(),
		"success_frac":      ratio(ok, pages),
		"alloc_mb_per_page": ratio(float64(after.TotalAlloc-e.mem.TotalAlloc)/1e6, pages),
		"allocs_per_page":   ratio(float64(after.Mallocs-e.mem.Mallocs), pages),
		"peak_mem_mb":       median(e.unitPeaks),
	}
}

// summary is the human-readable line for an untraced window.
func (e *e2e) summary(r *report) {
	r.say("measured %.2fs: attempted=%d failed=%d failed_frac=%.4f peak_rss_mb=%.1f (process, including set-up)", e.elapsed.Seconds(), e.attempted, e.failed, ratio(float64(e.failed), float64(e.attempted)), peakRSSMB())
	r.say("latency %s", e.lat.describe())
	r.say("quality Cor=%d InC=%d FN=%d FP=%d P=%.4f R=%.4f F=%.4f", e.counts.Cor, e.counts.InCor, e.counts.FN, e.counts.FP, e.counts.Precision(), e.counts.Recall(), e.counts.F())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// parallel runs f(0..n-1) on `concurrency` goroutines and returns
// their errors joined.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// overheadPct compares the median unit time of traced and untraced
// units interleaved in one traced run.
func overheadPct(traced, untraced latencies) float64 {
	if len(traced) == 0 || len(untraced) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(untraced) - 1)
}

package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/eval"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
)

// goldenTable4 is the committed Table 4, relative to the repository
// root: the per-page counts every table4 pass must reproduce at seed 42.
var goldenTable4 = filepath.Join("results", "table4.txt")

// goldenSeed is the generator seed results/table4.txt was made with.
const goldenSeed = 42

// job is one segmentation task with its expected outcome.
type job struct {
	id    string
	in    core.Input
	opts  *core.Options
	truth []sitegen.TruthRecord
	// wantCode is the expected typed failure ("" for success): a page
	// on which the method gives up, as the CSP can on a dirty page, is
	// expected to give up the same way every time.
	wantCode apiv1.Code
	// want is the expected score; digest, when set, fingerprints the
	// expected records (indices, extract texts, columns).
	want   eval.Counts
	digest [sha256.Size]byte
}

// errCode classifies an outcome by its wire error code ("" for none).
func errCode(err error) apiv1.Code {
	if err == nil {
		return ""
	}
	return apiv1.CodeFromError(err)
}

// score scores a segmentation, or a missing one as all false
// negatives.
func score(seg *core.Segmentation, truth []sitegen.TruthRecord) eval.Counts {
	if seg == nil {
		return eval.Counts{FN: len(truth)}
	}
	return eval.Score(seg, truth)
}

// check compares one result against the job's expected outcome.
func (j *job) check(seg *core.Segmentation, err error) (eval.Counts, error) {
	if code := errCode(err); code != j.wantCode {
		return eval.Counts{}, fmt.Errorf("%s: outcome %q, want %q (%v)", j.id, code, j.wantCode, err)
	}
	got := score(seg, j.truth)
	if got != j.want {
		return got, fmt.Errorf("%s: counts %v, want %v", j.id, got, j.want)
	}
	if j.digest != ([sha256.Size]byte{}) && recordDigest(seg) != j.digest {
		return got, fmt.Errorf("%s: records differ from the reference segmentation", j.id)
	}
	return got, nil
}

// recordDigest fingerprints a segmentation's records.
func recordDigest(seg *core.Segmentation) [sha256.Size]byte {
	h := sha256.New()
	for i := range seg.Records {
		r := &seg.Records[i]
		fmt.Fprintf(h, "%d\x1e%s\x1e%v\x1d", r.Index, strings.Join(r.Texts(), "\x1f"), r.Columns)
	}
	var d [sha256.Size]byte
	copy(d[:], h.Sum(nil))
	return d
}

// referenceJob segments in directly through core.SegmentContext — no
// engine, no cache — and records the outcome, a segmentation or a typed
// failure, as the job's expectation.
func referenceJob(id string, in core.Input, opts core.Options, truth []sitegen.TruthRecord) job {
	seg, err := core.SegmentContext(context.Background(), in, opts)
	j := job{id: id, in: in, opts: &opts, truth: truth, wantCode: errCode(err), want: score(seg, truth)}
	if seg != nil {
		j.digest = recordDigest(seg)
	}
	return j
}

// table4Replicas is how many generator seeds one table4 run studies:
// per-seed pass times vary with how hard the CSP finds each seed's
// pages, and averaging over several seeds keeps runs comparable.
const table4Replicas = 6

// table4Seeds returns a run's generator seeds. The first is the run's
// own seed, so a run at the golden seed checks Table 4 itself.
func table4Seeds(seed int64) []int64 {
	seeds := make([]int64, table4Replicas)
	for i := range seeds {
		seeds[i] = seed + int64(i)*1_000_003
	}
	return seeds
}

// table4Jobs builds the paper's study for each generator seed of a
// run: 12 site profiles x 2 list pages, each under probabilistic then
// csp, in Table 4's order. Expectations come from direct reference
// runs; at the golden seed the expected counts are the committed
// results/table4.txt rows instead.
func table4Jobs(seed int64) ([]job, error) {
	type spec struct {
		id    string
		in    core.Input
		m     core.Method
		truth []sitegen.TruthRecord
	}
	var specs []spec
	for _, gs := range table4Seeds(seed) {
		for _, p := range sitegen.Profiles() {
			site := sitegen.Generate(p, gs)
			for pageIdx := range site.Lists {
				in := experiments.BuildInput(site, pageIdx)
				for _, m := range []core.Method{core.Probabilistic, core.CSP} {
					id := fmt.Sprintf("seed%d-%s-%d-%s", gs, p.Slug, pageIdx, m)
					specs = append(specs, spec{id, in, m, site.Lists[pageIdx].Truth})
				}
			}
		}
	}
	jobs := make([]job, len(specs))
	parallel(len(specs), func(i int) error {
		s := &specs[i]
		jobs[i] = referenceJob(s.id, s.in, core.DefaultOptions(s.m), s.truth)
		return nil
	})
	if seed == goldenSeed {
		text, err := os.ReadFile(filepath.Join(repoRoot, goldenTable4))
		if err != nil {
			return nil, err
		}
		rows, err := parseGoldenTable4(string(text))
		if err != nil {
			return nil, err
		}
		if len(rows) > len(jobs) {
			return nil, fmt.Errorf("golden table has %d counts, study has %d tasks", len(rows), len(jobs))
		}
		for i := range rows {
			jobs[i].want = rows[i]
		}
	}
	return jobs, nil
}

var goldenRow = regexp.MustCompile(`^(.+\(\d\))\s*\|\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*\|\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*\|`)

// parseGoldenTable4 returns the per-page counts of a rendered Table 4,
// probabilistic then csp for each row.
func parseGoldenTable4(text string) ([]eval.Counts, error) {
	var out []eval.Counts
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		m := goldenRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		var n [8]int
		for i := range n {
			v, err := strconv.Atoi(m[i+2])
			if err != nil {
				return nil, fmt.Errorf("golden table row %q: %w", m[1], err)
			}
			n[i] = v
		}
		out = append(out,
			eval.Counts{Cor: n[0], InCor: n[1], FN: n[2], FP: n[3]},
			eval.Counts{Cor: n[4], InCor: n[5], FN: n[6], FP: n[7]})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("golden table has no rows")
	}
	return out, nil
}

// outcome is one task's result as the caller saw it.
type outcome struct {
	res     engine.Result
	latency time.Duration
	err     error // Submit refused the task
}

// engineCounters sums the cache counters of the engines of traced
// passes.
type engineCounters struct {
	engine.CacheStats
	memHits, memMisses, memPuts, memEvictions int64
	memResidentMax                            int64
}

func (c *engineCounters) add(cs engine.CacheStats) {
	c.TokenHits += cs.TokenHits
	c.TokenMisses += cs.TokenMisses
	c.TemplateHits += cs.TemplateHits
	c.TemplateMisses += cs.TemplateMisses
	if len(cs.Tiers) > 0 {
		c.addTier(cs.Tiers[0])
	}
}

func (c *engineCounters) addTier(t artifact.Stats) {
	c.memHits += t.Hits
	c.memMisses += t.Misses
	c.memPuts += t.Puts
	c.memEvictions += t.Evictions
	if t.Bytes > c.memResidentMax {
		c.memResidentMax = t.Bytes
	}
}

// fill writes the engine and artifact per-layer metrics.
func (c *engineCounters) fill(m map[string]float64, pages float64) {
	m["engine.token_hit_ratio"] = ratio(float64(c.TokenHits), float64(c.TokenHits+c.TokenMisses))
	m["engine.template_hit_ratio"] = ratio(float64(c.TemplateHits), float64(c.TemplateHits+c.TemplateMisses))
	m["artifact.mem_hit_ratio"] = ratio(float64(c.memHits), float64(c.memHits+c.memMisses))
	m["artifact.mem_puts_per_page"] = ratio(float64(c.memPuts), pages)
	m["artifact.mem_evictions_per_page"] = ratio(float64(c.memEvictions), pages)
	m["artifact.mem_resident_mb"] = float64(c.memResidentMax) / 1e6
}

// table4Pass runs every job once through a fresh engine (cold artifact
// store) as a closed loop of `concurrency` outstanding Submits.
func table4Pass(jobs []job, obs stage.Observer) ([]outcome, engine.CacheStats, time.Duration, error) {
	eng, err := engine.New(engine.Config{
		Options:     core.DefaultOptions(core.Probabilistic),
		Concurrency: concurrency,
		Observer:    obs,
	})
	if err != nil {
		return nil, engine.CacheStats{}, 0, err
	}
	ctx := context.Background()
	outs := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				j := &jobs[i]
				t0 := time.Now()
				ch, err := eng.Submit(ctx, engine.Task{ID: j.id, Input: j.in, Options: j.opts})
				if err != nil {
					outs[i] = outcome{err: err}
					continue
				}
				res := <-ch
				outs[i] = outcome{res: res, latency: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := eng.Close(); err != nil {
		return nil, engine.CacheStats{}, 0, err
	}
	return outs, eng.CacheStats(), elapsed, nil
}

func runTable4(cfg runConfig) (*report, error) {
	var jobs []job
	setup, cleanup, err := repeatSetup(cfg.cal, func() (func(), error) {
		var err error
		jobs, err = table4Jobs(cfg.seed)
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &report{}
	for i := range jobs {
		if jobs[i].wantCode != "" {
			rep.say("expected outcome of %s: %s, as in its reference run", jobs[i].id, jobs[i].wantCode)
		}
	}
	rep.say("table4: %d tasks per pass (generator seeds %v x 12 sites x 2 pages x {probabilistic, csp}), fresh engine per pass, %d outstanding Submits", len(jobs), table4Seeds(cfg.seed), concurrency)
	if cfg.seed == goldenSeed {
		rep.say("generator seed %d: every task must reproduce its results/table4.txt row", goldenSeed)
	}

	var run e2e
	run.setup = setup
	run.cal = cfg.cal
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var (
		tasks                 []taskRecord
		counters              engineCounters
		busy, tracedElapsed   time.Duration
		passTimes, passLat    latencies // per pass: wall time, mean task latency
		tracedPass, plainPass latencies
		waits                 latencies
	)
	run.begin()
	defer run.watch.Stop()
	for pass := 0; pass == 0 || time.Since(run.start) < cfg.dur; pass++ {
		traced := cfg.trace && pass%2 == 0
		var obs stage.Observer
		if traced {
			obs = rec
		}
		outs, cs, elapsed, err := table4Pass(jobs, obs)
		if err != nil {
			return nil, err
		}
		var passOK int
		var passLatSum float64
		for i, o := range outs {
			run.attempted++
			if o.err == nil {
				o.err = o.res.Err
			}
			got, err := jobs[i].check(o.res.Seg, o.err)
			run.counts = run.counts.Add(got)
			if err != nil {
				run.failed++
				if run.failed <= 3 {
					rep.say("FAIL %v", err)
				}
				continue
			}
			run.lat = append(run.lat, ms(o.latency))
			passOK++
			passLatSum += ms(o.latency)
			if traced {
				st := o.res.Stats
				t := recordFromStats(jobs[i].opts.Method, o.latency, st.Wall, &st.Stats, o.res.Seg)
				t.id = jobs[i].id
				t.pagesLexed = st.TokenCacheMisses
				t.viaEngine = true
				tasks = append(tasks, t)
				busy += st.Wall
				waits = append(waits, ms(o.latency-st.Wall))
			}
		}
		run.unitDone()
		passTimes = append(passTimes, ms(elapsed))
		passLat = append(passLat, ratio(passLatSum, float64(passOK)))
		if traced {
			counters.add(cs)
			tracedElapsed += elapsed
			tracedPass = append(tracedPass, ms(elapsed))
		} else {
			plainPass = append(plainPass, ms(elapsed))
		}
	}
	rep.attempted, rep.failed = run.attempted, run.failed
	if !cfg.trace {
		rep.values = run.end()
		// Every pass does the same work: report the median pass.
		rep.values["pages_per_s"] = float64(len(jobs)) / median(passTimes) * 1000 * rep.values["success_frac"]
		rep.values["latency_ms"] = median(passLat)
		run.summary(rep)
		rep.say("pass times ms %.0f, mean task latency per pass ms %.2f; pages_per_s and latency_ms are the median pass's", passTimes, passLat)
		return rep, nil
	}
	rt := run.watch.runtimeStats()
	m := newLayerValues()
	addStageLayers(m, tasks)
	pages := float64(len(tasks))
	counters.fill(m, pages)
	if v, ok := percentile(waits.sorted(), 0.5); ok {
		m["engine.queue_wait_ms_p50"] = v
	}
	m["engine.busy_frac"] = ratio(float64(busy), float64(concurrency)*float64(tracedElapsed))
	m["runtime.gc_cycles_per_page"] = ratio(rt.gcCycles, float64(run.attempted))
	m["runtime.gc_cpu_frac"] = rt.gcCPUFrac
	m["runtime.heap_peak_mb"] = rt.heapPeakMB
	m["trace.overhead_pct"] = overheadPct(tracedPass, plainPass)
	rep.values = m
	return rep, finishTrace(cfg, rep, tasks, rec, tracedPass, plainPass)
}

package main

import (
	"context"
	"fmt"
	"time"

	"tableseg/internal/core"
	"tableseg/internal/eval"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
)

// largeRecords is the record count of the large property-tax page;
// set-up warms up on a page of warmRecords.
const (
	largeRecords = 200
	warmRecords  = 100
)

// largeSeed is the generator seed of the workload's page: the page of
// BenchmarkLargePage, whatever the run's seed. EM converges on it in 15
// iterations, but it runs to its 30-iteration cap on about one
// generator seed in five (seeds 2, 8 and 11 of 1-15), doubling the page
// time, so a page drawn from the run's seed would make runs
// incomparable.
const largeSeed = goldenSeed

// largePageJob builds the list page of BenchmarkLargePage, with the
// given record count, for a generator seed. Its expectation comes from
// the generator alone: every record correct (F = 1), which also fixes
// the record count.
func largePageJob(seed int64, records int) job {
	profile := sitegen.Profile{
		Name: "Large Scale County", Slug: "largescale",
		Domain: sitegen.PropertyTax, Layout: sitegen.Grid,
		RecordsPerList: [2]int{records, records},
	}
	site := sitegen.Generate(profile, seed)
	opts := core.DefaultOptions(core.Probabilistic)
	return job{
		id:    fmt.Sprintf("largescale%d-seed%d", records, seed),
		in:    experiments.BuildInput(site, 0),
		opts:  &opts,
		truth: site.Lists[0].Truth,
		want:  eval.Counts{Cor: records},
	}
}

func runLargePage(cfg runConfig) (*report, error) {
	var j job
	setup, cleanup, err := repeatSetup(cfg.cal, func() (func(), error) {
		j = largePageJob(largeSeed, largeRecords)
		if len(j.truth) != largeRecords {
			return nil, fmt.Errorf("generator made %d records, want %d", len(j.truth), largeRecords)
		}
		// Warm up on a smaller page of the same site profile.
		w := largePageJob(largeSeed, warmRecords)
		_, err := w.check(core.SegmentEnv(context.Background(), w.in, *w.opts, core.Env{}))
		return func() {}, err
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()
	rep := &report{}
	rep.say("largepage: the %d-record property-tax page of BenchmarkLargePage (generator seed %d, for every --seed), probabilistic, one core.SegmentEnv call at a time",
		largeRecords, largeSeed)

	var run e2e
	run.setup = setup
	run.cal = cfg.cal
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var tasks []taskRecord
	var tracedPage, plainPage latencies
	ctx := context.Background()
	run.begin()
	defer run.watch.Stop()
	for page := 0; page == 0 || time.Since(run.start) < cfg.dur; page++ {
		traced := cfg.trace && page%2 == 0
		var env core.Env
		var st core.Stats
		if traced {
			env = core.Env{Stats: &st, Observer: rec}
		}
		t0 := time.Now()
		seg, err := core.SegmentEnv(ctx, j.in, *j.opts, env)
		latency := time.Since(t0)
		run.unitDone()
		run.attempted++
		got, err := j.check(seg, err)
		run.counts = run.counts.Add(got)
		if err != nil {
			run.failed++
			rep.say("FAIL %v", err)
			continue
		}
		run.lat = append(run.lat, ms(latency))
		if traced {
			t := recordFromStats(core.Probabilistic, latency, latency, &st, seg)
			t.id = j.id
			t.pagesLexed = len(j.in.ListPages) + len(j.in.DetailPages)
			tasks = append(tasks, t)
			tracedPage = append(tracedPage, ms(latency))
		} else {
			plainPage = append(plainPage, ms(latency))
		}
	}
	rep.attempted, rep.failed = run.attempted, run.failed
	if !cfg.trace {
		rep.values = run.end()
		// Every call segments the same page: latency_ms is the median
		// call; pages_per_s counts every page over the whole window,
		// including the checks and garbage collection between calls.
		rep.values["latency_ms"] = median(run.lat)
		run.summary(rep)
		rep.say("latency_ms is the median call's; pages_per_s is pages over the whole window, calibrations left out; call times ms %.0f", run.lat)
		return rep, nil
	}
	rt := run.watch.runtimeStats()
	m := newLayerValues()
	addStageLayers(m, tasks)
	m["runtime.gc_cycles_per_page"] = ratio(rt.gcCycles, float64(run.attempted))
	m["runtime.gc_cpu_frac"] = rt.gcCPUFrac
	m["runtime.heap_peak_mb"] = rt.heapPeakMB
	m["trace.overhead_pct"] = overheadPct(tracedPage, plainPage)
	rep.values = m
	rep.say("no engine or server on this workload: engine.*, artifact.*, server.*, apiv1.* and loadgen.* read 0")
	return rep, finishTrace(cfg, rep, tasks, rec, tracedPage, plainPage)
}

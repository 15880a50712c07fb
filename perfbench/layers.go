package main

import (
	"time"

	"tableseg/internal/core"
	"tableseg/internal/stage"
)

// taskRecord is what the traced run learns about one segmentation from
// the public seams: the caller's own timing, the per-task stats the
// engine (or core.SegmentEnv) fills in, and the segmentation's
// diagnostics.
type taskRecord struct {
	id     string
	method core.Method
	// latency is the caller-observed time from submission to result;
	// wall is the pipeline's own TaskStats.Wall (for a direct
	// core.SegmentEnv call the two coincide).
	latency, wall time.Duration
	stages        []core.StageTiming
	flips         int
	restarts      int
	cutRounds     int
	emIters       int
	pagesLexed    int
	relaxed       bool
	wholePage     bool
	// cells is the probabilistic lattice size n·K·C of one EM
	// iteration, computed from problem sizes: n analyzed extracts, K
	// records and C columns of the learned model. It is not counted
	// inside phmm.
	cells float64
	// viaEngine marks tasks run by the engine, whose site preparation
	// (list tokenization and template induction on a template miss)
	// happens before the stage graph and so shows as wall time not
	// covered by any stage.
	viaEngine bool
}

// stageSum returns the summed duration of the named stages.
func (t *taskRecord) stageSum(names ...string) time.Duration {
	var d time.Duration
	for _, s := range t.stages {
		for _, n := range names {
			if s.Name == n {
				d += s.Duration
			}
		}
	}
	return d
}

// stageCalls returns how often the named stage ran.
func (t *taskRecord) stageCalls(name string) int {
	for _, s := range t.stages {
		if s.Name == name {
			return s.Calls
		}
	}
	return 0
}

// spanViolation reports whether the task's stage spans sum past its
// task span: the stages run inside the pipeline's wall time, which runs
// inside the caller's latency.
func (t *taskRecord) spanViolation() bool {
	var sum time.Duration
	for _, s := range t.stages {
		sum += s.Duration
	}
	return sum > t.wall || t.wall > t.latency
}

// newLayerValues returns every per-layer metric set to 0.
func newLayerValues() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	return m
}

// addStageLayers fills the per-layer metrics that come from per-task
// stats. "Per page" divides by every task of the workload, so the self
// times of the layers add up to (most of) the mean task latency. The
// Segment stage's time is the self time of the solver the task ran;
// trace.solver_share is its share of the median task's latency.
func addStageLayers(m map[string]float64, tasks []taskRecord) {
	if len(tasks) == 0 {
		return
	}
	n := float64(len(tasks))
	var cspSelf, phmmSelf, tok, tpl, ext, post, prep time.Duration
	var flips, restarts, cuts, iters, lexed, cellIters float64
	var cspTasks, relaxed, whole, retried float64
	var solverShare latencies
	for i := range tasks {
		t := &tasks[i]
		seg := t.stageSum(stage.StageSegment)
		switch t.method {
		case core.CSP:
			cspSelf += seg
			cspTasks++
			if t.relaxed {
				relaxed++
			}
		case core.Probabilistic:
			phmmSelf += seg
			cellIters += t.cells * float64(t.emIters)
		}
		tok += t.stageSum(stage.StageTokenize)
		tpl += t.stageSum(stage.StageInduceTemplate, stage.StageSelectSlot)
		ext += t.stageSum(stage.StageExtract, stage.StageObserve)
		post += t.stageSum(stage.StagePostProcess)
		if t.viaEngine {
			var staged time.Duration
			for _, s := range t.stages {
				staged += s.Duration
			}
			prep += t.wall - staged
		}
		flips += float64(t.flips)
		restarts += float64(t.restarts)
		cuts += float64(t.cutRounds)
		iters += float64(t.emIters)
		lexed += float64(t.pagesLexed)
		if t.wholePage {
			whole++
		}
		if t.stageCalls(stage.StageExtract) > 1 {
			retried++
		}
		solverShare = append(solverShare, ratio(float64(seg), float64(t.latency)))
	}
	m["csp.self_ms_per_page"] = ms(cspSelf) / n
	m["csp.wsat_flips_per_page"] = flips / n
	m["csp.wsat_restarts_per_page"] = restarts / n
	m["csp.cut_rounds_per_page"] = cuts / n
	m["csp.ns_per_flip"] = ratio(float64(cspSelf), flips)
	m["csp.relaxed_frac"] = ratio(relaxed, cspTasks)
	m["phmm.self_ms_per_page"] = ms(phmmSelf) / n
	m["phmm.em_iters_per_page"] = iters / n
	m["phmm.ms_per_em_iter"] = ratio(ms(phmmSelf), iters)
	m["phmm.lattice_cells_per_iter"] = ratio(cellIters, iters)
	m["phmm.ns_per_cell"] = ratio(float64(phmmSelf), cellIters)
	m["token.self_ms_per_page"] = ms(tok) / n
	m["token.pages_lexed_per_task"] = lexed / n
	m["pagetemplate.self_ms_per_page"] = ms(tpl) / n
	m["pagetemplate.whole_page_frac"] = whole / n
	m["extract.self_ms_per_page"] = ms(ext) / n
	m["extract.retry_frac"] = retried / n
	m["stage.postprocess_ms_per_page"] = ms(post) / n
	m["engine.prep_ms_per_page"] = ms(prep) / n
	m["trace.solver_share"] = median(solverShare)
}

// spanViolations counts tasks whose stage spans sum past the task span.
func spanViolations(tasks []taskRecord) int {
	n := 0
	for i := range tasks {
		if tasks[i].spanViolation() {
			n++
		}
	}
	return n
}

// recordFromStats builds a taskRecord from an in-process segmentation.
func recordFromStats(method core.Method, latency, wall time.Duration, st *core.Stats, seg *core.Segmentation) taskRecord {
	t := taskRecord{
		method:    method,
		latency:   latency,
		wall:      wall,
		stages:    st.Stages,
		flips:     st.WSATFlips,
		restarts:  st.WSATRestarts,
		cutRounds: st.CutRounds,
		emIters:   st.EMIters,
	}
	if seg != nil {
		t.relaxed = seg.Relaxed
		t.wholePage = seg.UsedWholePage
		if seg.PHMM != nil && seg.PHMM.Model != nil {
			t.cells = float64(seg.Analyzed) * float64(seg.PHMM.Model.K) * float64(seg.PHMM.Model.C)
		}
	}
	return t
}

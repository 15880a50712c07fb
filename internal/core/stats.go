package core

import "time"

// Stats records per-stage instrumentation of one Segment call — the
// pipeline's observability surface. All fields are measured on the
// task's own goroutine; a nil *Stats disables collection entirely.
type Stats struct {
	// Stages breaks the call down by pipeline stage, in pipeline order.
	Stages []StageTiming
	// WSATRestarts and WSATFlips count the local-search work done by
	// the CSP solve (0 for the probabilistic method).
	WSATRestarts, WSATFlips int
	// CutRounds counts lazy consecutiveness-repair iterations.
	CutRounds int
	// EMIters counts EM iterations (0 for the CSP method).
	EMIters int
}

// StageTiming aggregates the invocations of one pipeline stage within
// a Stats collection window.
type StageTiming struct {
	// Name is the stage name (stage.StageTokenize, ...).
	Name string
	// Duration totals the stage's wall time across Calls invocations.
	Duration time.Duration
	// Calls counts invocations (the coverage retry re-runs Extract and
	// Observe).
	Calls int
}

// AddStage folds one stage invocation into the collection: entries
// merge by name in first-invocation order.
func (s *Stats) AddStage(name string, d time.Duration) {
	for i := range s.Stages {
		if s.Stages[i].Name == name {
			s.Stages[i].Duration += d
			s.Stages[i].Calls++
			return
		}
	}
	s.Stages = append(s.Stages, StageTiming{Name: name, Duration: d, Calls: 1})
}

// statsObserver folds stage.Observer callbacks into a Stats.
type statsObserver struct {
	stats *Stats
}

func (o *statsObserver) OnStageStart(name string) {}

func (o *statsObserver) OnStageEnd(name string, d time.Duration, err error) {
	o.stats.AddStage(name, d)
}

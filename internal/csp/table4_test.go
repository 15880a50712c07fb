package csp_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
)

// captureSolver is the csp solver, recording every instance it is
// asked to segment.
type captureSolver struct {
	stage.Solver
	into *[]csp.SegmentInput
}

func (s captureSolver) Solve(ctx context.Context, p *stage.Problem) (*stage.Assignment, error) {
	*s.into = append(*s.into, csp.SegmentInput{
		NumRecords: p.NumRecords, Candidates: p.Candidates, PositionGroups: p.PositionGroups,
	})
	return s.Solver.Solve(ctx, p)
}

var table4 struct {
	once   sync.Once
	inputs []csp.SegmentInput
	params csp.WSATParams
}

// table4Inputs returns the segmentation instances the csp method
// solves in the Table 4 study (every list page of every site profile
// at the default generator seed), captured at the Segment stage of the
// real pipeline, and the WSAT parameters it solves them with.
func table4Inputs(tb testing.TB) ([]csp.SegmentInput, csp.WSATParams) {
	table4.once.Do(func() {
		opts := core.DefaultOptions(core.CSP)
		opts.Solver = "csp-capture"
		table4.params = opts.CSPParams.WSAT
		stage.RegisterSolver(opts.Solver, func(cfg any) (stage.Solver, error) {
			inner, err := stage.NewSolver("csp", cfg)
			return captureSolver{Solver: inner, into: &table4.inputs}, err
		})
		for _, p := range sitegen.Profiles() {
			site := sitegen.Generate(p, experiments.DefaultSeed)
			for pageIdx := range site.Lists {
				// Pipeline failures (an exhausted ladder, no
				// evidence) are Table 4 outcomes, not errors here:
				// an instance that reached the solver is captured
				// either way.
				_, _ = core.SegmentContext(context.Background(), experiments.BuildInput(site, pageIdx), opts)
			}
		}
	})
	if len(table4.inputs) == 0 {
		tb.Fatal("no Table 4 instance reached the csp solver")
	}
	return table4.inputs, table4.params
}

// TestWSATKernelMatchesReferenceTable4 runs both WSAT kernels on every
// Table 4 instance, strict and relaxed, through the cut rounds the
// solutions call for.
func TestWSATKernelMatchesReferenceTable4(t *testing.T) {
	inputs, params := table4Inputs(t)
	for i, in := range inputs {
		for _, level := range []csp.RelaxLevel{csp.Strict, csp.Relaxed} {
			csp.MatchEncodedReference(t, fmt.Sprintf("Table 4 instance %d %v", i, level), csp.Encode(in, level), params)
		}
	}
}

// BenchmarkWSATRestart times one WSAT restart, kernel set-up included,
// on the largest relaxed Table 4 instance.
func BenchmarkWSATRestart(b *testing.B) {
	inputs, params := table4Inputs(b)
	var p *csp.Problem
	for _, in := range inputs {
		if q := csp.Encode(in, csp.Relaxed).Problem; p == nil || q.NumVars() > p.NumVars() {
			p = q
		}
	}
	params.Restarts, params.Seed = 1, 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csp.SolveWSATContext(context.Background(), p, params); err != nil {
			b.Fatal(err)
		}
	}
}

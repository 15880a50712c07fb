package csp_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

// captureSolver is the csp solver, recording every instance it is
// asked to segment and every page it then assigns columns on.
type captureSolver struct {
	stage.Solver
	set *table4Set
}

func (s captureSolver) Solve(ctx context.Context, p *stage.Problem) (*stage.Assignment, error) {
	s.set.inputs = append(s.set.inputs, csp.SegmentInput{
		NumRecords: p.NumRecords, Candidates: p.Candidates, PositionGroups: p.PositionGroups,
	})
	asg, err := s.Solver.Solve(ctx, p)
	if err == nil && !asg.Exhausted {
		s.set.columns = append(s.set.columns, columnPage{
			records: slices.Clone(asg.Records), types: slices.Clone(p.FirstTypes),
		})
	}
	return asg, err
}

// columnPage is one AssignColumns input: the solved records and the
// extracts' first token types.
type columnPage struct {
	records []int
	types   []token.Type
}

// table4Set is what the csp method solves in the Table 4 study at one
// generator seed: its segmentation instances, its column-assignment
// pages and the WSAT parameters it solves both with.
type table4Set struct {
	inputs  []csp.SegmentInput
	columns []columnPage
	params  csp.WSATParams
}

var table4 struct {
	mu   sync.Mutex
	sets map[int64]*table4Set
}

// table4At captures the Table 4 study at a generator seed (every list
// page of every site profile) at the Segment stage of the real
// pipeline, through a capture solver registered for that seed.
func table4At(tb testing.TB, seed int64) *table4Set {
	table4.mu.Lock()
	defer table4.mu.Unlock()
	if set, ok := table4.sets[seed]; ok {
		return set
	}
	set := &table4Set{}
	opts := core.DefaultOptions(core.CSP)
	opts.Solver = fmt.Sprintf("csp-capture-%d", seed)
	set.params = opts.CSPParams.WSAT
	stage.RegisterSolver(opts.Solver, func(cfg any) (stage.Solver, error) {
		inner, err := stage.NewSolver("csp", cfg)
		return captureSolver{Solver: inner, set: set}, err
	})
	for _, p := range sitegen.Profiles() {
		site := sitegen.Generate(p, seed)
		for pageIdx := range site.Lists {
			// Pipeline failures (an exhausted ladder, no evidence) are
			// Table 4 outcomes, not errors here: an instance that
			// reached the solver is captured either way.
			_, _ = core.SegmentContext(context.Background(), experiments.BuildInput(site, pageIdx), opts)
		}
	}
	if table4.sets == nil {
		table4.sets = map[int64]*table4Set{}
	}
	table4.sets[seed] = set // the solver name is taken either way
	if len(set.inputs) == 0 || len(set.columns) == 0 {
		tb.Fatalf("seed %d: no Table 4 instance reached the csp solver", seed)
	}
	return set
}

// table4Inputs returns the segmentation instances the csp method
// solves in the Table 4 study at the default generator seed, and the
// WSAT parameters it solves them with.
func table4Inputs(tb testing.TB) ([]csp.SegmentInput, csp.WSATParams) {
	set := table4At(tb, experiments.DefaultSeed)
	return set.inputs, set.params
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

// heldOutSeed is a generator seed the column floor was not developed
// against.
const heldOutSeed = 7

// TestAssignColumnsCertifiedTable4 checks every Table 4 column page, at
// the default seed and a held-out one: each is within the DP's state
// cap, and stopping at the floor returns the assignment the full
// budget does.
func TestAssignColumnsCertifiedTable4(t *testing.T) {
	for _, seed := range []int64{experiments.DefaultSeed, heldOutSeed} {
		set := table4At(t, seed)
		stoppedEarly := 0
		for i, pg := range set.columns {
			name := fmt.Sprintf("seed %d page %d", seed, i)
			p, floor, ok := csp.ColumnProblem(pg.records, pg.types)
			if !ok {
				t.Errorf("%s: over the DP state cap", name)
			}
			got, want, certified, full := csp.ColumnRuns(pg.records, pg.types, set.params)
			if !slices.Equal(got, want) {
				t.Errorf("%s: certified columns %v, full budget %v", name, got, want)
			}
			cols, err := csp.AssignColumns(context.Background(), pg.records, pg.types, set.params)
			if err != nil || !slices.Equal(cols, got) {
				t.Errorf("%s: AssignColumns = %v, %v; certified run %v", name, cols, err, got)
			}
			if p == nil {
				continue
			}
			if !slices.Equal(certified.Assign, full.Assign) {
				t.Errorf("%s: certified and full-budget assignments differ", name)
			}
			if certified.SoftPenalty != floor {
				t.Errorf("%s: certified soft penalty %d, floor %d", name, certified.SoftPenalty, floor)
			}
			if floor > 0 && certified.Flips < full.Flips {
				stoppedEarly++
			}
		}
		t.Logf("seed %d: %d column pages, %d stopped early at a positive floor", seed, len(set.columns), stoppedEarly)
		if stoppedEarly == 0 {
			t.Errorf("seed %d: no column page stopped early at a positive floor", seed)
		}
	}
}

// BenchmarkAssignColumns times AssignColumns on the largest Table 4
// column page (default seed) whose floor is positive: a search that
// stops only at soft penalty 0 spends its whole budget there.
func BenchmarkAssignColumns(b *testing.B) {
	set := table4At(b, experiments.DefaultSeed)
	var page *columnPage
	vars := 0
	for i, pg := range set.columns {
		if p, floor, ok := csp.ColumnProblem(pg.records, pg.types); p != nil && ok && floor > 0 && p.NumVars() > vars {
			page, vars = &set.columns[i], p.NumVars()
		}
	}
	if page == nil {
		b.Fatal("no Table 4 column page with a positive floor")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := csp.AssignColumns(context.Background(), page.records, page.types, set.params); err != nil {
			b.Fatal(err)
		}
	}
}

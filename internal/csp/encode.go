package csp

import (
	"context"
	"errors"
	"sort"
)

// SegmentInput is the abstract record-segmentation instance of §4: the
// analyzed extracts of a list page (in stream order), their candidate
// record sets D_i derived from detail-page observations, and the groups
// of extracts sharing a position on some detail page.
type SegmentInput struct {
	// NumRecords is K, the number of detail pages (records).
	NumRecords int
	// Candidates[i] is D_i for analyzed extract i: the sorted record
	// indices (0-based) on whose detail pages extract i was observed.
	Candidates [][]int
	// PositionGroups maps a detail-page index j to groups of extract
	// indices that share a position on page j; each group of size g
	// contributes the §4.2 constraint "exactly (or at most) one of the
	// g extracts belongs to record j".
	PositionGroups map[int][][]int
}

// RelaxLevel is a rung of the paper's relaxation ladder (§6.3): strict
// equalities first; replaced with inequalities when WSAT(OIP) cannot
// satisfy all constraints, yielding a partial assignment.
type RelaxLevel int

const (
	// Strict: uniqueness Σ_j x_ij = 1 and position groups Σ x = 1.
	Strict RelaxLevel = iota
	// Relaxed: both become ≤ 1; a soft Σ_j x_ij ≥ 1 per extract makes
	// the solver prefer maximal partial assignments.
	Relaxed
)

func (r RelaxLevel) String() string {
	if r == Strict {
		return "strict"
	}
	return "relaxed"
}

// Encoding is a compiled segmentation instance: the pseudo-boolean
// problem plus the variable map to decode solutions.
type Encoding struct {
	Problem *Problem
	Level   RelaxLevel
	in      SegmentInput
	// varOf[i] maps candidate record j to the variable index of x_ij
	// for extract i (only records in D_i are present).
	varOf []map[int]int
	// blockVars counts auxiliary block-activation variables (stats).
	blockVars int
}

// NumAssignVars returns the number of x_ij assignment variables.
func (e *Encoding) NumAssignVars() int {
	n := 0
	for _, m := range e.varOf {
		n += len(m)
	}
	return n
}

// NumBlockVars returns the number of auxiliary block variables.
func (e *Encoding) NumBlockVars() int { return e.blockVars }

// Encode compiles a segmentation instance into a pseudo-boolean problem
// at the given relaxation level, constructing the uniqueness (§4.1),
// consecutiveness (§4.1) and position (§4.2) constraints.
func Encode(in SegmentInput, level RelaxLevel) *Encoding {
	p := NewProblem()
	e := &Encoding{Problem: p, Level: level, in: in, varOf: make([]map[int]int, len(in.Candidates))}

	// Assignment variables x_ij, only where r_j ∈ D_i.
	for i, cands := range in.Candidates {
		e.varOf[i] = make(map[int]int, len(cands))
		for _, j := range cands {
			e.varOf[i][j] = p.AddVar("")
		}
	}

	// Uniqueness: every extract belongs to exactly (or at most) one record.
	for i, cands := range in.Candidates {
		if len(cands) == 0 {
			continue
		}
		terms := make([]Term, 0, len(cands))
		for _, j := range cands {
			terms = append(terms, Term{1, e.varOf[i][j]})
		}
		if level == Strict {
			p.AddHard(terms, EQ, 1, "uniq")
		} else {
			p.AddHard(terms, LE, 1, "uniq")
			p.AddSoft(terms, GE, 1, 1, "assign") // prefer assigning every extract
		}
	}

	// Consecutiveness (block form): for each record j, the candidate
	// extracts split into maximal contiguous blocks (runs unbroken by
	// an extract that cannot belong to r_j). At most one block may be
	// active per record; x_ij implies its block is active.
	for j := 0; j < in.NumRecords; j++ {
		blocks := candidateBlocks(in.Candidates, j)
		if len(blocks) < 2 {
			continue
		}
		blockTerms := make([]Term, 0, len(blocks))
		for _, block := range blocks {
			y := p.AddVar("")
			e.blockVars++
			blockTerms = append(blockTerms, Term{1, y})
			for _, i := range block {
				// x_ij − y_jb ≤ 0  (x implies block active)
				p.AddHard([]Term{{1, e.varOf[i][j]}, {-1, y}}, LE, 0, "consec")
			}
		}
		p.AddHard(blockTerms, LE, 1, "consec")
	}

	// Position constraints: extracts sharing a position on detail page
	// j occupy the same field slot of record j, so exactly (at most)
	// one of them belongs to r_j.
	pages := make([]int, 0, len(in.PositionGroups))
	for j := range in.PositionGroups {
		pages = append(pages, j)
	}
	sort.Ints(pages)
	for _, j := range pages {
		for _, group := range in.PositionGroups[j] {
			terms := make([]Term, 0, len(group))
			for _, i := range group {
				if v, ok := e.varOf[i][j]; ok {
					terms = append(terms, Term{1, v})
				}
			}
			if len(terms) < 2 {
				continue
			}
			if level == Strict {
				p.AddHard(terms, EQ, 1, "pos")
			} else {
				p.AddHard(terms, LE, 1, "pos")
			}
		}
	}
	return e
}

// candidateBlocks returns the maximal runs of consecutive extract
// indices whose candidate sets contain record j.
func candidateBlocks(candidates [][]int, j int) [][]int {
	var blocks [][]int
	var cur []int
	for i, cands := range candidates {
		if containsInt(cands, j) {
			cur = append(cur, i)
			continue
		}
		if len(cur) > 0 {
			blocks = append(blocks, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks
}

func containsInt(sorted []int, v int) bool {
	k := sort.SearchInts(sorted, v)
	return k < len(sorted) && sorted[k] == v
}

// Decode converts a solver assignment into per-extract record numbers
// (-1 for unassigned extracts, which occur under Relaxed).
func (e *Encoding) Decode(assign []bool) []int {
	out := make([]int, len(e.in.Candidates))
	for i := range out {
		out[i] = -1
		for j, v := range e.varOf[i] {
			if assign[v] {
				out[i] = j
				break
			}
		}
	}
	return out
}

// ConsecutivenessCuts inspects a decoded assignment for within-block
// contiguity violations — x_ij = 1, x_kj = 1 with an intermediate
// candidate n (i < n < k, r_j ∈ D_n) left out — and returns the lazy
// cuts x_ij + x_kj − x_nj ≤ 1 that forbid exactly those holes. An empty
// result certifies the assignment fully consecutive.
func (e *Encoding) ConsecutivenessCuts(records []int) []Constraint {
	var cuts []Constraint
	// For each record, the assigned extract indices in order.
	byRecord := make(map[int][]int)
	for i, r := range records {
		if r >= 0 {
			byRecord[r] = append(byRecord[r], i)
		}
	}
	// Emit cuts in ascending record order: byRecord is a map, and
	// constraint order steers the local search's flip sequence, so
	// iterating it directly would make solves run-dependent.
	recs := make([]int, 0, len(byRecord))
	for j := range byRecord {
		recs = append(recs, j)
	}
	sort.Ints(recs)
	for _, j := range recs {
		idxs := byRecord[j]
		if len(idxs) < 2 {
			continue
		}
		sort.Ints(idxs)
		lo, hi := idxs[0], idxs[len(idxs)-1]
		assigned := make(map[int]bool, len(idxs))
		for _, i := range idxs {
			assigned[i] = true
		}
		for n := lo + 1; n < hi; n++ {
			if assigned[n] {
				continue
			}
			vn, ok := e.varOf[n][j]
			if !ok {
				continue // handled statically by block constraints
			}
			// Find the tight straddling pair (previous and next assigned).
			i, k := lo, hi
			for _, a := range idxs {
				if a < n {
					i = a
				}
				if a > n {
					k = a
					break
				}
			}
			cuts = append(cuts, Constraint{
				Terms: []Term{{1, e.varOf[i][j]}, {1, e.varOf[k][j]}, {-1, vn}},
				Op:    LE, RHS: 1, Tag: "cut",
			})
		}
	}
	return cuts
}

// Status describes how a segmentation solve concluded.
type Status int

const (
	// Solved: all strict constraints satisfied.
	Solved Status = iota
	// SolvedRelaxed: strict constraints were unsatisfiable; the
	// relaxed encoding produced a (possibly partial) assignment.
	SolvedRelaxed
	// Failed: even the relaxed encoding found no feasible assignment.
	Failed
)

func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case SolvedRelaxed:
		return "solved-relaxed"
	default:
		return "failed"
	}
}

// SegmentResult is the outcome of SolveSegmentation.
type SegmentResult struct {
	// Records[i] is the record index assigned to analyzed extract i,
	// or -1 if unassigned.
	Records []int
	Status  Status
	// Relaxed is true when the relaxation ladder was used.
	Relaxed bool
	// CutRounds counts lazy consecutiveness-repair iterations.
	CutRounds int
	// Vars and Constraints are final problem sizes (diagnostics).
	Vars, Constraints int
	// Flips and Restarts total the local-search work across every WSAT
	// call of the solve (all rungs and cut rounds).
	Flips, Restarts int
}

// SolveParams configures SolveSegmentation.
type SolveParams struct {
	WSAT WSATParams
	// MaxCutRounds bounds lazy consecutiveness repair (default 5; a
	// negative value disables repair entirely, so a rung whose
	// solution has contiguity holes simply fails — the static-only
	// ablation of DESIGN.md).
	MaxCutRounds int
	// ExactCheck runs the exact solver before local search, on
	// instances of up to ExactVarLimit variables: a certified UNSAT
	// rung fails without any WSAT work, and a SAT verdict supplies the
	// assignment when WSAT finds none.
	ExactCheck    bool
	ExactVarLimit int
	// NoRelax disables the relaxation ladder: if the strict encoding
	// is unsatisfiable the solve fails outright (the relaxation
	// ablation of DESIGN.md; the paper's §6.3 argues the ladder is
	// what rescues the dirty sites).
	NoRelax bool
}

func (sp SolveParams) withDefaults() SolveParams {
	if sp.MaxCutRounds == 0 {
		sp.MaxCutRounds = 5
	}
	if sp.ExactVarLimit == 0 {
		sp.ExactVarLimit = 120
	}
	return sp
}

// SolveSegmentationContext runs the paper's CSP pipeline end to end:
// encode strictly, solve with WSAT(OIP)-style local search (with lazy
// consecutiveness repair), and on failure descend the relaxation
// ladder and accept a partial assignment. Cancellation is honored at
// WSAT restart and cut-round boundaries, so the solve aborts promptly
// with ctx.Err() while uncancelled runs stay deterministic.
func SolveSegmentationContext(ctx context.Context, in SegmentInput, params SolveParams) (*SegmentResult, error) {
	params = params.withDefaults()
	res, ok, err := trySolve(ctx, in, Strict, params, certify)
	if err != nil {
		return nil, err
	}
	if ok {
		res.Status = Solved
		return res, nil
	}
	flips, restarts := res.Flips, res.Restarts
	if !params.NoRelax {
		res, ok, err = trySolve(ctx, in, Relaxed, params, certify)
		if err != nil {
			return nil, err
		}
		res.Flips += flips
		res.Restarts += restarts
		if ok {
			res.Status = SolvedRelaxed
			res.Relaxed = true
			return res, nil
		}
		flips, restarts = res.Flips, res.Restarts
	}
	return &SegmentResult{
		Records:  unassignedAll(len(in.Candidates)),
		Status:   Failed,
		Relaxed:  true,
		Flips:    flips,
		Restarts: restarts,
	}, nil
}

func unassignedAll(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// certify is the exact check the ladder gives trySolve: SolveExact
// with its default node budget.
func certify(ctx context.Context, p *Problem) ([]bool, bool, error) {
	return SolveExact(ctx, p, ExactParams{})
}

// trySolve attempts one rung of the ladder, returning a result and
// whether a feasible, fully consecutive assignment was found. On
// failure the result still carries the Flips/Restarts spent, so the
// ladder can aggregate solver work across rungs.
//
// Under ExactCheck a small enough instance is first given to exact
// (certify in production): an UNSAT verdict fails the rung without
// any local search (WSAT could not have found a feasible assignment),
// while a SAT verdict keeps WSAT's own assignment whenever it is
// feasible and falls back to the exact one only when it is not. Either
// way the rung's outcome is the one a WSAT-first order would reach.
func trySolve(ctx context.Context, in SegmentInput, level RelaxLevel, params SolveParams, exact func(context.Context, *Problem) ([]bool, bool, error)) (*SegmentResult, bool, error) {
	enc := Encode(in, level)
	spent := &SegmentResult{}
	rounds := 0
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		var witness []bool
		if params.ExactCheck && enc.Problem.NumVars() <= params.ExactVarLimit {
			assign, sat, exErr := exact(ctx, enc.Problem)
			switch {
			case exErr == nil && sat:
				witness = assign
			case exErr == nil:
				return spent, false, nil // certified UNSAT at this rung
			case !errors.Is(exErr, ErrSearchLimit):
				return nil, false, exErr // context cancellation
			}
			// ErrSearchLimit: satisfiability unknown, WSAT decides.
		}
		sol, err := SolveWSATContext(ctx, enc.Problem, params.WSAT)
		if err != nil {
			return nil, false, err
		}
		spent.Flips += sol.Flips
		spent.Restarts += sol.Restarts
		if !sol.Feasible && witness != nil {
			sol = &Solution{Assign: witness, Feasible: true}
		}
		if !sol.Feasible {
			return spent, false, nil
		}
		records := enc.Decode(sol.Assign)
		cuts := enc.ConsecutivenessCuts(records)
		if len(cuts) == 0 {
			return &SegmentResult{
				Records:     records,
				CutRounds:   rounds,
				Vars:        enc.Problem.NumVars(),
				Constraints: len(enc.Problem.Constraints),
				Flips:       spent.Flips,
				Restarts:    spent.Restarts,
			}, true, nil
		}
		if rounds >= params.MaxCutRounds {
			return spent, false, nil
		}
		for _, c := range cuts {
			enc.Problem.Add(c)
		}
		rounds++
	}
}

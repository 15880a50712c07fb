package csp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// This file holds the WSAT kernel as it was before newSearchState
// compiled the problem into a flat view (refSolveWSAT and
// refSearchState, kept verbatim apart from their names), the
// differential tests that pin the flat kernel to it, the tests of the
// certify-first ladder and of Solution.Flips.

// refSolveWSAT is SolveWSATContext as it was before the flat kernel:
// it walks Constraint.Terms for every coefficient, keeps parallel
// per-constraint slices, deduplicates incidences with a map and
// rescans the whole violated set on every pick. Its Flips field keeps
// the old meaning (MaxFlips per started restart).
func refSolveWSAT(ctx context.Context, p *Problem, params WSATParams) (*Solution, error) {
	params = params.withDefaults(p.NumVars())
	rng := rand.New(rand.NewSource(params.Seed))
	st := newRefSearchState(p, params)

	best := &Solution{Assign: make([]bool, p.NumVars()), HardViolation: 1 << 30, SoftPenalty: 1 << 30}
	totalFlips := 0
	for restart := 0; restart < params.Restarts; restart++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		best.Restarts = restart + 1
		st.randomize(rng)
		st.recordBest(best, restart)
		if best.Feasible && best.SoftPenalty == 0 {
			break
		}
		stagnant := 0
		for flip := 0; flip < params.MaxFlips; flip++ {
			ci := st.pickViolated(rng)
			if ci < 0 { // all satisfied
				break
			}
			v := st.pickVar(ci, rng, totalFlips+flip)
			if v < 0 {
				continue
			}
			st.flip(v, totalFlips+flip)
			improved := false
			if st.trueScore() <= best.score(params.HardWeight) {
				improved = st.recordBest(best, restart)
				if best.Feasible && best.SoftPenalty == 0 {
					break
				}
			}
			if improved {
				stagnant = 0
			} else if params.DynamicWeights {
				stagnant++
				if stagnant >= params.StagnationWindow {
					st.bumpWeights()
					stagnant = 0
				}
			}
		}
		totalFlips += params.MaxFlips
		if best.Feasible && best.SoftPenalty == 0 {
			break
		}
	}
	best.Flips = totalFlips
	return best, nil
}

// refSearchState holds the incremental data structures of the local search:
// current assignment, per-constraint LHS values, violation totals, and
// the variable→constraint incidence index.
type refSearchState struct {
	p       *Problem
	params  WSATParams
	assign  []bool
	lhs     []int
	viol    []int // violation per constraint
	occ     [][]int
	violSet []int // indices of currently violated constraints (lazy, compacted on pick)
	inSet   []bool
	hard    []int // pickViolated's scratch: the violated hard constraints
	tabu    []int // last flip time per var

	hardViolation int
	softPenalty   int
	// Dynamic clause weights: dyn[ci] is the extra per-unit penalty on
	// hard constraint ci; dynPenalty aggregates viol[ci]*dyn[ci]. Both
	// shape the search score only — best-solution tracking uses the
	// true objective.
	dyn        []int
	dynPenalty int
}

func newRefSearchState(p *Problem, params WSATParams) *refSearchState {
	st := &refSearchState{
		p:      p,
		params: params,
		assign: make([]bool, p.NumVars()),
		lhs:    make([]int, len(p.Constraints)),
		viol:   make([]int, len(p.Constraints)),
		occ:    make([][]int, p.NumVars()),
		inSet:  make([]bool, len(p.Constraints)),
		tabu:   make([]int, p.NumVars()),
		dyn:    make([]int, len(p.Constraints)),
	}
	for ci := range p.Constraints {
		// Register each constraint once per distinct variable: the
		// flip routines already sum duplicate terms' coefficients, so
		// a duplicate occ entry would double-apply the update.
		seen := map[int]bool{}
		for _, t := range p.Constraints[ci].Terms {
			if seen[t.Var] {
				continue
			}
			seen[t.Var] = true
			st.occ[t.Var] = append(st.occ[t.Var], ci)
		}
	}
	return st
}

// trueScore is the unreshaped objective used for best-solution tracking.
// (Move selection never consults a global score: flipDelta evaluates
// the reshaped, dynamically weighted objective incrementally.)
func (st *refSearchState) trueScore() int {
	return st.hardViolation*st.params.HardWeight + st.softPenalty
}

func (st *refSearchState) randomize(rng *rand.Rand) {
	for i := range st.assign {
		st.assign[i] = rng.Intn(2) == 1
		st.tabu[i] = -1 << 30
	}
	for i := range st.dyn {
		st.dyn[i] = 0
	}
	st.dynPenalty = 0
	st.recompute()
}

// bumpWeights raises the dynamic weight of every currently violated
// hard constraint, reshaping the score surface to escape a local
// minimum.
func (st *refSearchState) bumpWeights() {
	inc := st.params.HardWeight/10 + 1
	for _, ci := range st.violSet {
		if st.viol[ci] == 0 || !st.p.Constraints[ci].Hard() {
			continue
		}
		st.dyn[ci] += inc
		st.dynPenalty += st.viol[ci] * inc
	}
}

func (st *refSearchState) recompute() {
	st.hardViolation, st.softPenalty = 0, 0
	st.violSet = st.violSet[:0]
	for ci := range st.p.Constraints {
		c := &st.p.Constraints[ci]
		st.lhs[ci] = c.LHS(st.assign)
		st.viol[ci] = c.violationOf(st.lhs[ci])
		st.inSet[ci] = false
		if st.viol[ci] > 0 {
			if c.Hard() {
				st.hardViolation += st.viol[ci]
			} else {
				st.softPenalty += st.viol[ci] * c.Weight
			}
			st.violSet = append(st.violSet, ci)
			st.inSet[ci] = true
		}
	}
}

// pickViolated returns a random violated constraint index, or -1 when
// everything is satisfied. Hard violations are preferred over soft ones.
func (st *refSearchState) pickViolated(rng *rand.Rand) int {
	// Compact the lazy violated set.
	w := 0
	for _, ci := range st.violSet {
		if st.viol[ci] > 0 {
			st.violSet[w] = ci
			w++
		} else {
			st.inSet[ci] = false
		}
	}
	st.violSet = st.violSet[:w]
	if w == 0 {
		return -1
	}
	// Prefer a violated hard constraint with probability proportional
	// to their share, but always pick hard when any exists and a fair
	// coin lands hard-side: this keeps pressure on feasibility.
	hard := st.hard[:0]
	for _, ci := range st.violSet {
		if st.p.Constraints[ci].Hard() {
			hard = append(hard, ci)
		}
	}
	st.hard = hard
	if len(hard) > 0 && (len(hard) == w || rng.Float64() < 0.8) {
		return hard[rng.Intn(len(hard))]
	}
	return st.violSet[rng.Intn(w)]
}

// pickVar chooses which variable of constraint ci to flip: a noise move
// picks uniformly; otherwise the flip with the best score delta wins,
// subject to tabu (tabu is overridden when the flip would reach a new
// strictly better score — standard aspiration).
func (st *refSearchState) pickVar(ci int, rng *rand.Rand, now int) int {
	c := &st.p.Constraints[ci]
	if len(c.Terms) == 0 {
		return -1
	}
	if rng.Float64() < st.params.Noise {
		return c.Terms[rng.Intn(len(c.Terms))].Var
	}
	bestVar, bestDelta := -1, 1<<30
	for _, t := range c.Terms {
		d := st.flipDelta(t.Var)
		if now-st.tabu[t.Var] < st.params.TabuTenure && d >= 0 {
			continue // tabu without aspiration
		}
		if d < bestDelta || (d == bestDelta && bestVar >= 0 && rng.Intn(2) == 0) {
			bestDelta, bestVar = d, t.Var
		}
	}
	if bestVar < 0 { // everything tabu: random walk
		return c.Terms[rng.Intn(len(c.Terms))].Var
	}
	return bestVar
}

// flipDelta computes the score change if variable v were flipped.
func (st *refSearchState) flipDelta(v int) int {
	delta := 0
	dir := 1
	if st.assign[v] {
		dir = -1
	}
	for _, ci := range st.occ[v] {
		c := &st.p.Constraints[ci]
		var coef int
		for _, t := range c.Terms {
			if t.Var == v {
				coef += t.Coef
			}
		}
		newViol := c.violationOf(st.lhs[ci] + dir*coef)
		d := newViol - st.viol[ci]
		if c.Hard() {
			delta += d * (st.params.HardWeight + st.dyn[ci])
		} else {
			delta += d * c.Weight
		}
	}
	return delta
}

// flip applies the flip of variable v and updates incremental state.
func (st *refSearchState) flip(v, now int) {
	dir := 1
	if st.assign[v] {
		dir = -1
	}
	st.assign[v] = !st.assign[v]
	st.tabu[v] = now
	for _, ci := range st.occ[v] {
		c := &st.p.Constraints[ci]
		var coef int
		for _, t := range c.Terms {
			if t.Var == v {
				coef += t.Coef
			}
		}
		st.lhs[ci] += dir * coef
		newViol := c.violationOf(st.lhs[ci])
		d := newViol - st.viol[ci]
		if d != 0 {
			if c.Hard() {
				st.hardViolation += d
				st.dynPenalty += d * st.dyn[ci]
			} else {
				st.softPenalty += d * c.Weight
			}
		}
		st.viol[ci] = newViol
		if newViol > 0 && !st.inSet[ci] {
			st.violSet = append(st.violSet, ci)
			st.inSet[ci] = true
		}
	}
}

// recordBest keeps the first assignment reaching each true score (ties
// never replace an earlier best, so the result is stable against
// trajectory perturbations). It reports whether the best strictly
// improved.
func (st *refSearchState) recordBest(best *Solution, restart int) bool {
	if st.trueScore() < best.score(st.params.HardWeight) {
		copy(best.Assign, st.assign)
		best.HardViolation = st.hardViolation
		best.SoftPenalty = st.softPenalty
		best.Feasible = st.hardViolation == 0
		best.Restart = restart
		return true
	}
	return false
}

// solutionDiff describes how got differs from want in every Solution
// field but Flips ("" when they agree).
func solutionDiff(got, want *Solution) string {
	switch {
	case got.Feasible != want.Feasible:
		return fmt.Sprintf("Feasible %v, want %v", got.Feasible, want.Feasible)
	case got.HardViolation != want.HardViolation:
		return fmt.Sprintf("HardViolation %d, want %d", got.HardViolation, want.HardViolation)
	case got.SoftPenalty != want.SoftPenalty:
		return fmt.Sprintf("SoftPenalty %d, want %d", got.SoftPenalty, want.SoftPenalty)
	case got.Restart != want.Restart:
		return fmt.Sprintf("Restart %d, want %d", got.Restart, want.Restart)
	case got.Restarts != want.Restarts:
		return fmt.Sprintf("Restarts %d, want %d", got.Restarts, want.Restarts)
	case len(got.Assign) != len(want.Assign):
		return fmt.Sprintf("%d assignments, want %d", len(got.Assign), len(want.Assign))
	}
	for v := range got.Assign {
		if got.Assign[v] != want.Assign[v] {
			return fmt.Sprintf("Assign[%d] = %v, want %v", v, got.Assign[v], want.Assign[v])
		}
	}
	return ""
}

// matchReference runs both kernels on p and fails t unless they agree.
func matchReference(t *testing.T, name string, p *Problem, params WSATParams) *Solution {
	t.Helper()
	got, err := SolveWSATContext(context.Background(), p, params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refSolveWSAT(context.Background(), p, params)
	if err != nil {
		t.Fatal(err)
	}
	if d := solutionDiff(got, want); d != "" {
		t.Errorf("%s: %s", name, d)
	}
	return got
}

// kernelProblem builds a random problem over every shape the kernel
// compiles: duplicate terms (whose coefficients may sum to zero),
// negative coefficients, EQ/LE/GE, soft weights and empty-term
// constraints.
func kernelProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 2 + rng.Intn(30)
	for i := 0; i < n; i++ {
		p.AddVar("")
	}
	m := 1 + rng.Intn(3*n)
	for c := 0; c < m; c++ {
		k := 1 + rng.Intn(5)
		if rng.Intn(12) == 0 {
			k = 0
		}
		terms := make([]Term, 0, k)
		for len(terms) < k {
			v := rng.Intn(n)
			if len(terms) > 0 && rng.Intn(4) == 0 {
				v = terms[rng.Intn(len(terms))].Var
			}
			coef := rng.Intn(5) - 2
			if coef == 0 {
				coef = 1
			}
			terms = append(terms, Term{coef, v})
		}
		op, rhs := Op(rng.Intn(3)), rng.Intn(5)-2
		if rng.Intn(3) == 0 {
			p.AddSoft(terms, op, rhs, 1+rng.Intn(4), "soft")
		} else {
			p.AddHard(terms, op, rhs, "hard")
		}
	}
	return p
}

// noisySegmentInput generates a segmentation instance with shared and
// polluted observations and position groups, so the strict rung is
// often unsatisfiable and consecutiveness cuts are needed.
func noisySegmentInput(rng *rand.Rand) SegmentInput {
	k := 2 + rng.Intn(4)
	in := SegmentInput{NumRecords: k, PositionGroups: map[int][][]int{}}
	for r := 0; r < k; r++ {
		for f := 0; f < 1+rng.Intn(4); f++ {
			d := []int{r}
			switch rng.Intn(8) {
			case 0:
				d = []int{rng.Intn(k)} // polluted
			case 1:
				if r+1 < k {
					d = []int{r, r + 1}
				}
			case 2:
				d = []int{0, k - 1}
				if k == 1 {
					d = d[:1]
				}
			}
			in.Candidates = append(in.Candidates, d)
		}
	}
	n := len(in.Candidates)
	for g := rng.Intn(3); g > 0; g-- {
		j, a, b := rng.Intn(k), rng.Intn(n), rng.Intn(n)
		if a != b && containsInt(in.Candidates[a], j) && containsInt(in.Candidates[b], j) {
			in.PositionGroups[j] = append(in.PositionGroups[j], []int{a, b})
		}
	}
	return in
}

// TestWSATKernelMatchesReference pins the flat kernel to the reference
// kernel: every Solution field but Flips must agree exactly, on random
// problems with and without dynamic weights and on encoded
// segmentation instances at both rungs, through their cut rounds.
func TestWSATKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		p := kernelProblem(rng)
		params := WSATParams{
			Seed:             int64(trial),
			MaxFlips:         50 + rng.Intn(400),
			Restarts:         1 + rng.Intn(4),
			Noise:            []float64{0.1, 0.5}[trial%2],
			TabuTenure:       1 + rng.Intn(4),
			DynamicWeights:   trial%3 != 0,
			StagnationWindow: 1 + rng.Intn(16),
		}
		matchReference(t, fmt.Sprintf("random trial %d", trial), p, params)
	}
	inputs := []SegmentInput{superpagesInput()}
	for i := 0; i < 60; i++ {
		inputs = append(inputs, noisySegmentInput(rng))
	}
	for i, in := range inputs {
		for _, level := range []RelaxLevel{Strict, Relaxed} {
			for _, dyn := range []bool{false, true} {
				params := WSATParams{Seed: int64(i), DynamicWeights: dyn}
				matchEncodedReference(t, fmt.Sprintf("input %d %v dyn=%v", i, level, dyn), Encode(in, level), params)
			}
		}
	}
}

// matchEncodedReference compares the kernels on an encoding and, like
// the ladder, on the encoding plus each round of consecutiveness cuts
// the solution calls for.
func matchEncodedReference(t *testing.T, name string, enc *Encoding, params WSATParams) {
	t.Helper()
	for round := 0; round <= 5; round++ {
		sol := matchReference(t, fmt.Sprintf("%s round %d", name, round), enc.Problem, params)
		if !sol.Feasible {
			return
		}
		cuts := enc.ConsecutivenessCuts(enc.Decode(sol.Assign))
		if len(cuts) == 0 {
			return
		}
		for _, c := range cuts {
			enc.Problem.Add(c)
		}
	}
}

// TestSolutionFlipsCountsPerformed: Flips counts the flips made, not
// the MaxFlips budget of every restart started.
func TestSolutionFlipsCountsPerformed(t *testing.T) {
	// Ten unit constraints: a restart succeeds after at most a few
	// flips per variable, far below its 4,000-flip budget.
	p := NewProblem()
	for i := 0; i < 10; i++ {
		p.AddHard([]Term{{1, p.AddVar("")}}, EQ, 1, "unit")
	}
	sol := solveWSAT(p, WSATParams{Seed: 3})
	if !sol.Feasible || sol.Restarts != 1 {
		t.Fatalf("unit problem: feasible=%v restarts=%d", sol.Feasible, sol.Restarts)
	}
	if sol.Flips == 0 || sol.Flips > 40 {
		t.Errorf("unit problem: Flips = %d, want the handful performed", sol.Flips)
	}
	// An UNSAT one-variable problem flips on every iteration.
	sol = solveWSAT(unsatProblem(), WSATParams{Seed: 1, MaxFlips: 50, Restarts: 3})
	if sol.Flips != 150 {
		t.Errorf("unsat problem: Flips = %d, want 3 restarts × 50", sol.Flips)
	}
	// A violated constraint without terms offers nothing to flip.
	p = NewProblem()
	p.AddVar("")
	p.AddHard(nil, GE, 1, "empty")
	sol = solveWSAT(p, WSATParams{Seed: 1, MaxFlips: 50, Restarts: 3})
	if sol.Flips != 0 || sol.Restarts != 3 {
		t.Errorf("empty constraint: Flips = %d, Restarts = %d, want 0 and 3", sol.Flips, sol.Restarts)
	}
}

// refTrySolve is trySolve's pre-certification order: WSAT first, the
// exact solver only once local search has failed.
func refTrySolve(ctx context.Context, in SegmentInput, level RelaxLevel, params SolveParams) (*SegmentResult, bool, error) {
	enc := Encode(in, level)
	spent := &SegmentResult{}
	rounds := 0
	for {
		sol, err := SolveWSATContext(ctx, enc.Problem, params.WSAT)
		if err != nil {
			return nil, false, err
		}
		spent.Flips += sol.Flips
		spent.Restarts += sol.Restarts
		if !sol.Feasible && params.ExactCheck && enc.Problem.NumVars() <= params.ExactVarLimit {
			exact, sat, exErr := SolveExact(ctx, enc.Problem, ExactParams{})
			switch {
			case exErr == nil && sat:
				sol = &Solution{Assign: exact, Feasible: true}
			case exErr == nil && !sat:
				return spent, false, nil
			case !errors.Is(exErr, ErrSearchLimit):
				return nil, false, exErr
			}
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
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
	}
}

// countingExact wraps an exact check and counts its calls.
type countingExact struct {
	calls int
	fn    func(context.Context, *Problem) ([]bool, bool, error)
}

func (c *countingExact) solve(ctx context.Context, p *Problem) ([]bool, bool, error) {
	c.calls++
	return c.fn(ctx, p)
}

// TestTrySolveCertifiesFirst covers the three exact verdicts of the
// certify-first ladder and checks every rung against the WSAT-first
// order.
func TestTrySolveCertifiesFirst(t *testing.T) {
	ctx := context.Background()
	params := SolveParams{ExactCheck: true}.withDefaults()

	// Both extracts can only be record 0's, but share a position on
	// its page: the strict rung is UNSAT.
	unsat := SegmentInput{
		NumRecords:     1,
		Candidates:     [][]int{{0}, {0}},
		PositionGroups: map[int][][]int{0: {{0, 1}}},
	}
	res, ok, err := trySolve(ctx, unsat, Strict, params, certify)
	if err != nil || ok {
		t.Fatalf("UNSAT strict rung: ok=%v err=%v", ok, err)
	}
	if res.Flips != 0 || res.Restarts != 0 {
		t.Errorf("certified UNSAT rung spent %d flips, %d restarts; want none", res.Flips, res.Restarts)
	}
	if ref, _, _ := refTrySolve(ctx, unsat, Strict, params); ref.Flips == 0 {
		t.Error("WSAT-first reference spent no flips: the instance does not exercise certification")
	}
	full := solveSegmentation(unsat, params)
	relaxed, _, _ := refTrySolve(ctx, unsat, Relaxed, params)
	if full.Status != SolvedRelaxed || fmt.Sprint(full.Records) != fmt.Sprint(relaxed.Records) {
		t.Errorf("ladder: %v %v, want SolvedRelaxed %v", full.Status, full.Records, relaxed.Records)
	}

	// ErrSearchLimit: WSAT decides, and the exact check runs once per
	// cut round, never a second time after WSAT fails.
	limit := &countingExact{fn: func(context.Context, *Problem) ([]bool, bool, error) {
		return nil, false, ErrSearchLimit
	}}
	res, ok, err = trySolve(ctx, unsat, Strict, params, limit.solve)
	if err != nil || ok || limit.calls != 1 || res.Flips == 0 {
		t.Errorf("search limit on UNSAT: ok=%v err=%v exact calls=%d flips=%d; want a failed WSAT rung after one exact call", ok, err, limit.calls, res.Flips)
	}
	limit.calls = 0
	res, ok, err = trySolve(ctx, superpagesInput(), Strict, params, limit.solve)
	if err != nil || !ok || limit.calls != res.CutRounds+1 || fmt.Sprint(res.Records) != fmt.Sprint(wantSuperpages) {
		t.Errorf("search limit on SAT: ok=%v err=%v exact calls=%d (cut rounds %d) records=%v", ok, err, limit.calls, res.CutRounds, res.Records)
	}

	// SAT: WSAT's feasible assignment wins over the exact witness
	// (here an all-false witness that would decode to no records).
	blank := func(_ context.Context, p *Problem) ([]bool, bool, error) {
		return make([]bool, p.NumVars()), true, nil
	}
	res, ok, err = trySolve(ctx, superpagesInput(), Strict, params, blank)
	if err != nil || !ok || fmt.Sprint(res.Records) != fmt.Sprint(wantSuperpages) {
		t.Errorf("SAT rung: ok=%v err=%v records=%v, want WSAT's %v", ok, err, res.Records, wantSuperpages)
	}
	// ... and the witness is used only when WSAT finds nothing.
	starved := params
	starved.WSAT = WSATParams{MaxFlips: 1, Restarts: 1, Seed: 5}
	if sol := solveWSAT(Encode(superpagesInput(), Strict).Problem, starved.WSAT); sol.Feasible {
		t.Fatal("one-flip WSAT solved the superpages instance: pick another seed")
	}
	res, ok, err = trySolve(ctx, superpagesInput(), Strict, starved, certify)
	if err != nil || !ok || res.Flips != 1 {
		t.Errorf("starved WSAT: ok=%v err=%v flips=%d, want the exact witness after one flip", ok, err, res.Flips)
	}

	// Every rung of random instances matches the WSAT-first order.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		in := noisySegmentInput(rng)
		p := params
		p.WSAT.Seed = int64(trial)
		for _, level := range []RelaxLevel{Strict, Relaxed} {
			got, gotOK, err := trySolve(ctx, in, level, p, certify)
			if err != nil {
				t.Fatal(err)
			}
			want, wantOK, _ := refTrySolve(ctx, in, level, p)
			if gotOK != wantOK || fmt.Sprint(got.Records) != fmt.Sprint(want.Records) ||
				got.CutRounds != want.CutRounds || got.Vars != want.Vars || got.Constraints != want.Constraints {
				t.Errorf("trial %d %v: got ok=%v %+v, want ok=%v %+v", trial, level, gotOK, got, wantOK, want)
			}
			if got.Flips > want.Flips {
				t.Errorf("trial %d %v: %d flips, more than the WSAT-first %d", trial, level, got.Flips, want.Flips)
			}
		}
	}
}

package csp

import (
	"context"
	"math/rand"
)

// WSATParams tunes the local-search solver. Zero values select sensible
// defaults via (*WSATParams).withDefaults.
type WSATParams struct {
	// MaxFlips bounds the number of variable flips per restart.
	MaxFlips int
	// Restarts is the number of independent restarts.
	Restarts int
	// Noise is the probability of a random walk move instead of a
	// greedy one, in [0,1]. Walser recommends small non-zero noise.
	Noise float64
	// TabuTenure is the number of flips during which a just-flipped
	// variable may not be flipped back (0 disables tabu).
	TabuTenure int
	// HardWeight is the penalty multiplier for hard-constraint
	// violations relative to soft weights.
	HardWeight int
	// Seed seeds the solver's private RNG; runs are deterministic for
	// a fixed seed.
	Seed int64
	// DynamicWeights enables clause-weighting escape from local minima
	// (in the spirit of Walser's penalty adaptation): when the search
	// stagnates, the effective weight of currently violated hard
	// constraints grows, reshaping the landscape until a descent
	// direction opens. Weights reset at each restart.
	DynamicWeights bool
	// StagnationWindow is the number of flips without improvement that
	// triggers a weight bump (default 64; DynamicWeights only).
	StagnationWindow int
}

func (p WSATParams) withDefaults(problemSize int) WSATParams {
	if p.MaxFlips == 0 {
		p.MaxFlips = 2000 + 200*problemSize
	}
	if p.Restarts == 0 {
		p.Restarts = 8
	}
	if p.Noise <= 0 {
		p.Noise = 0.1
	}
	if p.TabuTenure == 0 {
		p.TabuTenure = 2
	}
	if p.HardWeight == 0 {
		p.HardWeight = 100
	}
	if p.StagnationWindow == 0 {
		p.StagnationWindow = 64
	}
	return p
}

// Solution is the outcome of a solver run.
type Solution struct {
	// Assign is the best assignment found.
	Assign []bool
	// Feasible is true when Assign satisfies every hard constraint.
	Feasible bool
	// HardViolation and SoftPenalty describe Assign's quality.
	HardViolation int
	SoftPenalty   int
	// Flips counts the total flips performed across restarts.
	Flips int
	// Restart records which restart produced the best assignment.
	Restart int
	// Restarts counts the restarts actually executed (the loop exits
	// early once a perfect assignment is found).
	Restarts int
}

// Score is the combined objective the search minimizes.
func (s *Solution) score(hardWeight int) int {
	return s.HardViolation*hardWeight + s.SoftPenalty
}

// SolveWSATContext runs a WSAT(OIP)-style local search: repeatedly
// pick an unsatisfied constraint and flip one of its variables,
// choosing the flip that most reduces the combined (hard-weighted)
// violation score, with probabilistic noise moves and a short tabu
// list, restarting from fresh random assignments. It returns the best
// assignment found; the caller decides what to do with an infeasible
// best (relax constraints, per §6.3). Cancellation is checked only at
// restart boundaries: an uncancelled run performs exactly the same
// flip sequence regardless of deadline (results stay deterministic
// for a fixed seed), while a cancelled one returns ctx.Err() within
// one restart's worth of flips.
func SolveWSATContext(ctx context.Context, p *Problem, params WSATParams) (*Solution, error) {
	params = params.withDefaults(p.NumVars())
	rng := rand.New(rand.NewSource(params.Seed))
	st := newSearchState(p, params)

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

// searchState holds the incremental data structures of the local search:
// current assignment, per-constraint LHS values, violation totals, and
// the variable→constraint incidence index.
type searchState struct {
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

func newSearchState(p *Problem, params WSATParams) *searchState {
	st := &searchState{
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
func (st *searchState) trueScore() int {
	return st.hardViolation*st.params.HardWeight + st.softPenalty
}

func (st *searchState) randomize(rng *rand.Rand) {
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
func (st *searchState) bumpWeights() {
	inc := st.params.HardWeight/10 + 1
	for _, ci := range st.violSet {
		if st.viol[ci] == 0 || !st.p.Constraints[ci].Hard() {
			continue
		}
		st.dyn[ci] += inc
		st.dynPenalty += st.viol[ci] * inc
	}
}

func (st *searchState) recompute() {
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
func (st *searchState) pickViolated(rng *rand.Rand) int {
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
func (st *searchState) pickVar(ci int, rng *rand.Rand, now int) int {
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
func (st *searchState) flipDelta(v int) int {
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
func (st *searchState) flip(v, now int) {
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
func (st *searchState) recordBest(best *Solution, restart int) bool {
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

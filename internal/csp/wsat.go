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
	// Flips counts the flips actually performed across restarts (a
	// restart that succeeds after three flips adds three, not its
	// MaxFlips budget).
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
	// clock is the tabu clock: every restart advances it by the full
	// MaxFlips budget, however many flips the restart performed.
	clock := 0
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
			v := st.pickVar(ci, rng, clock+flip)
			if v < 0 {
				continue
			}
			st.flip(v, clock+flip)
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
		clock += params.MaxFlips
		if best.Feasible && best.SoftPenalty == 0 {
			break
		}
	}
	best.Flips = st.flips
	return best, nil
}

// kcon is one constraint as the flip loop sees it: its op, rhs,
// search weight and hard flag next to the mutable lhs, violation and
// violated-set membership, so a flip touches one small record per
// constraint instead of the Problem's Constraint and four parallel
// slices.
type kcon struct {
	op  Op
	rhs int
	// w weighs one unit of violation in flipDelta's search score: the
	// soft weight, or for a hard constraint HardWeight plus whatever
	// dynamic weighting has added. Best-solution tracking uses the
	// true objective instead.
	w     int
	lhs   int
	viol  int
	hard  bool
	inSet bool // listed in violSet (and in hard, when hard)
}

func (c *kcon) violationOf(lhs int) int { return violation(c.op, c.rhs, lhs) }

// occTerm is one incidence of a variable: the constraint it occurs in
// and its coefficient there, with duplicate terms of the constraint
// summed.
type occTerm struct {
	ci   int
	coef int
}

// searchState holds the incremental data structures of the local
// search. newSearchState compiles the Problem once into a flat view —
// the kcon records and a per-variable incidence list — so the flip
// loop never walks Constraint.Terms except to enumerate a picked
// constraint's candidate variables.
type searchState struct {
	p      *Problem
	params WSATParams
	assign []bool
	tabu   []int // last flip time per var
	cons   []kcon
	// occ[occAt[v]:occAt[v+1]] lists variable v's incidences, by
	// ascending constraint index.
	occ   []occTerm
	occAt []int
	// violSet lists the violated constraints in the order they became
	// violated; hard is always its hard-filtered subsequence, in the
	// same order. Both may hold constraints the last flip satisfied
	// (stale is then set) until pickViolated compacts them.
	violSet []int
	hard    []int
	stale   bool
	flips   int // flips performed

	hardViolation int
	softPenalty   int
}

func newSearchState(p *Problem, params WSATParams) *searchState {
	n, m := p.NumVars(), len(p.Constraints)
	st := &searchState{
		p:       p,
		params:  params,
		assign:  make([]bool, n),
		tabu:    make([]int, n),
		cons:    make([]kcon, m),
		occAt:   make([]int, n+1),
		violSet: make([]int, 0, m),
		hard:    make([]int, 0, m),
	}
	// Count, then fill, each variable's incidences. last[v] is one
	// plus the last constraint that registered v: a repeated term adds
	// its coefficient to that entry instead of registering again.
	last := make([]int, n)
	for ci := range p.Constraints {
		c := &p.Constraints[ci]
		st.cons[ci] = kcon{op: c.Op, rhs: c.RHS, w: c.Weight, hard: c.Hard()}
		for _, t := range c.Terms {
			if last[t.Var] != ci+1 {
				last[t.Var] = ci + 1
				st.occAt[t.Var+1]++
			}
		}
	}
	for v := 0; v < n; v++ {
		st.occAt[v+1] += st.occAt[v]
		last[v] = 0
	}
	st.occ = make([]occTerm, st.occAt[n])
	next := make([]int, n)
	copy(next, st.occAt[:n])
	for ci := range p.Constraints {
		for _, t := range p.Constraints[ci].Terms {
			if last[t.Var] == ci+1 {
				st.occ[next[t.Var]-1].coef += t.Coef
				continue
			}
			last[t.Var] = ci + 1
			st.occ[next[t.Var]] = occTerm{ci: ci, coef: t.Coef}
			next[t.Var]++
		}
	}
	return st
}

// occOf returns variable v's incidence list.
func (st *searchState) occOf(v int) []occTerm {
	return st.occ[st.occAt[v]:st.occAt[v+1]]
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
	st.recompute()
}

// bumpWeights raises the dynamic weight of every currently violated
// hard constraint, reshaping the score surface to escape a local
// minimum.
func (st *searchState) bumpWeights() {
	inc := st.params.HardWeight/10 + 1
	for _, ci := range st.hard {
		if c := &st.cons[ci]; c.viol > 0 {
			c.w += inc
		}
	}
}

// recompute rebuilds every constraint's lhs and violation from the
// assignment, clears the dynamic weights and relists the violated
// constraints in index order.
func (st *searchState) recompute() {
	for ci := range st.cons {
		c := &st.cons[ci]
		c.lhs, c.inSet = 0, false
		if c.hard {
			c.w = st.params.HardWeight
		}
	}
	for v, on := range st.assign {
		if !on {
			continue
		}
		for _, o := range st.occOf(v) {
			st.cons[o.ci].lhs += o.coef
		}
	}
	st.hardViolation, st.softPenalty = 0, 0
	st.violSet, st.hard, st.stale = st.violSet[:0], st.hard[:0], false
	for ci := range st.cons {
		c := &st.cons[ci]
		c.viol = c.violationOf(c.lhs)
		if c.viol == 0 {
			continue
		}
		st.violSet = append(st.violSet, ci)
		c.inSet = true
		if c.hard {
			st.hardViolation += c.viol
			st.hard = append(st.hard, ci)
		} else {
			st.softPenalty += c.viol * c.w
		}
	}
}

// pickViolated returns a random violated constraint index, or -1 when
// everything is satisfied. Hard violations are preferred over soft ones.
func (st *searchState) pickViolated(rng *rand.Rand) int {
	if st.stale {
		st.violSet = st.compact(st.violSet)
		st.hard = st.compact(st.hard)
		st.stale = false
	}
	w := len(st.violSet)
	if w == 0 {
		return -1
	}
	// Prefer a violated hard constraint with probability proportional
	// to their share, but always pick hard when any exists and a fair
	// coin lands hard-side: this keeps pressure on feasibility.
	hard := st.hard
	if len(hard) > 0 && (len(hard) == w || rng.Float64() < 0.8) {
		return hard[rng.Intn(len(hard))]
	}
	return st.violSet[rng.Intn(w)]
}

// compact drops the satisfied constraints from list in place, keeping
// the order of the rest, and marks the dropped ones as unlisted.
func (st *searchState) compact(list []int) []int {
	w := 0
	for _, ci := range list {
		if st.cons[ci].viol > 0 {
			list[w] = ci
			w++
		} else {
			st.cons[ci].inSet = false
		}
	}
	return list[:w]
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
	neg := st.assign[v]
	for _, o := range st.occOf(v) {
		c := &st.cons[o.ci]
		step := o.coef
		if neg {
			step = -step
		}
		delta += (c.violationOf(c.lhs+step) - c.viol) * c.w
	}
	return delta
}

// flip applies the flip of variable v and updates incremental state.
func (st *searchState) flip(v, now int) {
	neg := st.assign[v]
	st.assign[v] = !neg
	st.tabu[v] = now
	st.flips++
	for _, o := range st.occOf(v) {
		c := &st.cons[o.ci]
		if neg {
			c.lhs -= o.coef
		} else {
			c.lhs += o.coef
		}
		newViol := c.violationOf(c.lhs)
		if d := newViol - c.viol; d != 0 {
			if c.hard {
				st.hardViolation += d
			} else {
				st.softPenalty += d * c.w
			}
			if newViol == 0 {
				st.stale = true
			}
		}
		c.viol = newViol
		if newViol > 0 && !c.inSet {
			c.inSet = true
			st.violSet = append(st.violSet, o.ci)
			if c.hard {
				st.hard = append(st.hard, o.ci)
			}
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

package csp

import (
	"context"
	"errors"
)

// ErrSearchLimit is returned by SolveExact when the node budget is
// exhausted before the search space is covered; satisfiability is then
// unknown.
var ErrSearchLimit = errors.New("csp: exact search node limit exceeded")

// ExactParams tunes the exact solver.
type ExactParams struct {
	// MaxNodes bounds the number of search nodes explored; 0 selects a
	// default of 2,000,000.
	MaxNodes int
}

// SolveExact performs a complete depth-first search with bounds
// propagation over the hard constraints. It returns (assignment, true,
// nil) for a satisfying assignment of the hard constraints, (nil, false,
// nil) when provably unsatisfiable, or an ErrSearchLimit error when the
// node budget ran out. Soft constraints are ignored: the exact solver's
// job is feasibility and UNSAT certification (the paper's "no solution
// found" cases), not optimization. Cancellation is polled every few
// thousand search nodes and surfaces as ctx.Err(); an uncancelled run
// explores exactly the same node sequence regardless of deadline.
func SolveExact(ctx context.Context, p *Problem, params ExactParams) ([]bool, bool, error) {
	if params.MaxNodes == 0 {
		params.MaxNodes = 2_000_000
	}
	s := &exactSearch{p: p, maxNodes: params.MaxNodes, ctx: ctx}
	s.value = make([]int8, p.NumVars())
	for i := range s.value {
		s.value[i] = unset
	}
	// Precompute the hard constraints and each variable's number of
	// hard-constraint terms (pickVar's most-constrained order).
	s.hard = make([]int, 0, len(p.Constraints))
	s.occ = make([]int, p.NumVars())
	for ci := range p.Constraints {
		if !p.Constraints[ci].Hard() {
			continue
		}
		s.hard = append(s.hard, ci)
		for _, t := range p.Constraints[ci].Terms {
			s.occ[t.Var]++
		}
	}
	ok := s.dfs()
	if s.cancelled != nil {
		return nil, false, s.cancelled
	}
	if s.limited {
		return nil, false, ErrSearchLimit
	}
	if !ok {
		return nil, false, nil
	}
	out := make([]bool, p.NumVars())
	for i, v := range s.value {
		out[i] = v == 1
	}
	return out, true, nil
}

const unset int8 = 2

type exactSearch struct {
	p     *Problem
	hard  []int
	occ   []int // per variable: its number of hard-constraint terms
	value []int8
	// trail is the shared undo stack of propagation-forced variables;
	// each DFS node records its mark and truncates back to it.
	trail     []int
	nodes     int
	maxNodes  int
	limited   bool
	ctx       context.Context
	cancelled error
}

// feasibleBounds checks every hard constraint against the interval of
// achievable LHS values given the current partial assignment.
func (s *exactSearch) feasibleBounds() bool {
	for _, ci := range s.hard {
		if !s.constraintFeasible(ci) {
			return false
		}
	}
	return true
}

func (s *exactSearch) constraintFeasible(ci int) bool {
	c := &s.p.Constraints[ci]
	lo, hi := 0, 0
	for _, t := range c.Terms {
		switch s.value[t.Var] {
		case 1:
			lo += t.Coef
			hi += t.Coef
		case unset:
			if t.Coef > 0 {
				hi += t.Coef
			} else {
				lo += t.Coef
			}
		}
	}
	switch c.Op {
	case LE:
		return lo <= c.RHS
	case GE:
		return hi >= c.RHS
	case EQ:
		return lo <= c.RHS && hi >= c.RHS
	}
	return true
}

// propagate fixes forced variables: if setting a variable to one value
// makes some hard constraint infeasible by bounds, the other value is
// forced. Fixed variables are pushed on the trail (for undo); it
// reports false when a contradiction was reached.
func (s *exactSearch) propagate() bool {
	changed := true
	for changed {
		changed = false
		for _, ci := range s.hard {
			c := &s.p.Constraints[ci]
			if !s.constraintFeasible(ci) {
				return false
			}
			for _, t := range c.Terms {
				if s.value[t.Var] != unset {
					continue
				}
				forced := int8(unset)
				s.value[t.Var] = 0
				ok0 := s.constraintFeasible(ci)
				s.value[t.Var] = 1
				ok1 := s.constraintFeasible(ci)
				s.value[t.Var] = unset
				switch {
				case !ok0 && !ok1:
					return false
				case !ok0:
					forced = 1
				case !ok1:
					forced = 0
				}
				if forced != unset {
					s.value[t.Var] = forced
					s.trail = append(s.trail, t.Var)
					changed = true
				}
			}
		}
	}
	return true
}

// pickVar chooses the unset variable occurring in the most hard
// constraints (most-constrained-first).
func (s *exactSearch) pickVar() int {
	best, bestOcc := -1, -1
	for v := range s.value {
		if s.value[v] != unset {
			continue
		}
		if s.occ[v] > bestOcc {
			best, bestOcc = v, s.occ[v]
		}
	}
	return best
}

func (s *exactSearch) dfs() bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		s.limited = true
		return false
	}
	if s.nodes&0xfff == 0 {
		if err := s.ctx.Err(); err != nil {
			s.cancelled = err
			s.limited = true // reuse the abort plumbing of the node budget
			return false
		}
	}
	mark := len(s.trail)
	if !s.propagate() {
		s.undo(mark)
		return false
	}
	v := s.pickVar()
	if v < 0 {
		// Fully assigned; bounds feasibility on full assignment is
		// exact satisfaction.
		if s.feasibleBounds() {
			return true
		}
		s.undo(mark)
		return false
	}
	for _, val := range [2]int8{1, 0} {
		s.value[v] = val
		if s.feasibleBounds() && s.dfs() {
			return true
		}
		if s.limited {
			s.value[v] = unset
			s.undo(mark)
			return false
		}
	}
	s.value[v] = unset
	s.undo(mark)
	return false
}

// undo unsets the variables forced since the trail held mark entries
// and pops them.
func (s *exactSearch) undo(mark int) {
	for _, v := range s.trail[mark:] {
		s.value[v] = unset
	}
	s.trail = s.trail[:mark]
}

package csp

import (
	"context"
	"fmt"
	"math"
	"slices"

	"tableseg/internal/token"
)

// maxColumnStates caps the column sequences per record that the floor
// DP enumerates (an m-extract record on a numCols-column page has
// C(numCols-1, m-1) of them). A page with a larger record runs WSAT
// with no floor, exactly as if the DP did not exist.
const maxColumnStates = 64

// AssignColumns implements the §6.3 suggestion that column (attribute)
// assignment is obtainable in the CSP framework too, "by using the
// observation that different values of the same attribute should be
// similar in content, e.g., start with the same token type", expressed
// as constraints:
//
//   - each record-assigned extract takes exactly one column label;
//   - the first extract of a record takes column L1 (the paper's
//     first-column-never-missing assumption);
//   - columns increase strictly within a record (hard);
//   - extracts of neighboring records whose first word has the same
//     syntactic type prefer the same column (soft).
//
// records[i] is the record assignment of analyzed extract i (-1 =
// unassigned); firstTypes[i] is the syntactic type of the extract's
// first word. The result assigns a 0-based column to every
// record-assigned extract and -1 to the rest. Cancellation follows
// SolveWSATContext's restart-boundary polling and returns ctx.Err().
//
// The search stops as soon as it holds an assignment at the least soft
// penalty any feasible assignment can reach (columnModel.floor), which
// returns the same columns as spending the whole search budget.
func AssignColumns(ctx context.Context, records []int, firstTypes []token.Type, params WSATParams) ([]int, error) {
	if len(records) != len(firstTypes) {
		panic(fmt.Sprintf("csp: %d record assignments but %d types", len(records), len(firstTypes)))
	}
	m := newColumnModel(records, firstTypes)
	if m.p == nil {
		return m.decode(nil), nil
	}
	sol, err := solveWSATFloor(ctx, m.p, params, m.stopFloor(params))
	if err != nil {
		return nil, err
	}
	return m.decode(sol), nil
}

// columnModel is the column-assignment problem of one page.
type columnModel struct {
	types []token.Type
	// recs lists each record's extracts in stream order, records in
	// order of first appearance.
	recs    [][]int
	numCols int
	// Extract i may take the columns lo[i]..hi[i] (its feasible
	// window); y[i,c] is variable at[i]+c-lo[i].
	lo, hi, at []int
	// p is nil when every record has one extract: column 0 is then
	// the only choice and there is nothing to search.
	p *Problem
}

func newColumnModel(records []int, firstTypes []token.Type) *columnModel {
	m := &columnModel{
		types: firstTypes,
		lo:    make([]int, len(records)),
		hi:    make([]int, len(records)),
		at:    make([]int, len(records)),
	}
	// Group assigned extracts by record, in stream order.
	slot := map[int]int{}
	for i, r := range records {
		if r < 0 {
			continue
		}
		s, ok := slot[r]
		if !ok {
			s = len(m.recs)
			slot[r] = s
			m.recs = append(m.recs, nil)
		}
		m.recs[s] = append(m.recs[s], i)
		m.numCols = max(m.numCols, len(m.recs[s]))
	}
	if m.numCols <= 1 {
		return m
	}

	p := NewProblem()
	m.p = p
	for _, idxs := range m.recs {
		n := len(idxs)
		// The k-th extract of an n-extract record can only take
		// columns in [k, numCols-(n-k)]; the first never misses.
		for k, i := range idxs {
			m.lo[i], m.hi[i] = k, m.numCols-(n-k)
			if k == 0 {
				m.hi[i] = 0
			}
			m.at[i] = p.NumVars()
			terms := make([]Term, 0, m.hi[i]-m.lo[i]+1)
			for c := m.lo[i]; c <= m.hi[i]; c++ {
				terms = append(terms, Term{1, p.AddVar("")})
			}
			p.AddHard(terms, EQ, 1, "col-uniq")
		}
		// Strict increase between consecutive extracts of the record.
		// (Columns in numeric order: constraint order must be
		// deterministic or the local search becomes run-dependent.)
		for k := 1; k < n; k++ {
			prev, cur := idxs[k-1], idxs[k]
			for cPrev := m.lo[prev]; cPrev <= m.hi[prev]; cPrev++ {
				for cCur := m.lo[cur]; cCur <= min(cPrev, m.hi[cur]); cCur++ {
					p.AddHard([]Term{{1, m.y(prev, cPrev)}, {1, m.y(cur, cCur)}}, LE, 1, "col-order")
				}
			}
		}
	}

	// Soft alignment between neighboring records: same first token type
	// wants the same column.
	for ri := 1; ri < len(m.recs); ri++ {
		for _, i := range m.recs[ri-1] {
			for _, j := range m.recs[ri] {
				if firstTypes[i] != firstTypes[j] {
					continue
				}
				for c := max(m.lo[i], m.lo[j]); c <= min(m.hi[i], m.hi[j]); c++ {
					// |y_ic − y_jc| = 0 preferred.
					p.AddSoft([]Term{{1, m.y(i, c)}, {-1, m.y(j, c)}}, EQ, 0, 1, "col-align")
				}
			}
		}
	}
	return m
}

// y is the variable placing extract i in column c of its window.
func (m *columnModel) y(i, c int) int { return m.at[i] + c - m.lo[i] }

func (m *columnModel) inWindow(i, c int) bool { return m.lo[i] <= c && c <= m.hi[i] }

// decode reads the columns off a solution. A nil or infeasible one
// yields the witness assignment, k-th extract → column k: the hard
// constraints always admit it, so an infeasible local-search outcome
// only means the search budget ran dry.
func (m *columnModel) decode(sol *Solution) []int {
	out := make([]int, len(m.lo))
	for i := range out {
		out[i] = -1
	}
	for _, idxs := range m.recs {
		for k, i := range idxs {
			out[i] = k
			if sol == nil || !sol.Feasible {
				continue
			}
			for c := m.lo[i]; c <= m.hi[i]; c++ {
				if sol.Assign[m.y(i, c)] {
					out[i] = c
					break
				}
			}
		}
	}
	return out
}

// stopFloor is the soft penalty at which the search may stop: the
// floor, when the DP could afford it and it is at most HardWeight (so
// no infeasible assignment can undercut it), and 0 — the plain search
// — otherwise.
func (m *columnModel) stopFloor(params WSATParams) int {
	floor, ok := m.floor()
	if !ok || floor > params.withDefaults(m.p.NumVars()).HardWeight {
		return 0
	}
	return floor
}

// floor returns the least soft penalty of any hard-feasible column
// assignment, or ok = false when a record has more than
// maxColumnStates column sequences.
//
// The hard constraints allow exactly one column sequence per record —
// strictly increasing, starting at 0, each column in its extract's
// window — and every soft constraint links two neighboring records.
// So a DP along the records is exact: a state is one record's column
// sequence, and a transition costs the col-align constraints the two
// neighbors' sequences violate (see alignCost).
func (m *columnModel) floor() (int, bool) {
	var prevIdxs, prevSeqs []int
	prevCost := []int{0} // the empty prefix costs nothing
	for _, idxs := range m.recs {
		seqs, ok := m.sequences(idxs)
		if !ok {
			return 0, false
		}
		n, pn := len(idxs), len(prevIdxs)
		cost := make([]int, len(seqs)/n)
		if pn > 0 {
			pairs := m.alignedPairs(prevIdxs, idxs)
			for t := range cost {
				cur := seqs[t*n : (t+1)*n]
				cost[t] = math.MaxInt
				for s, base := range prevCost {
					cost[t] = min(cost[t], base+m.alignCost(pairs, prevIdxs, idxs, prevSeqs[s*pn:(s+1)*pn], cur))
				}
			}
		}
		prevIdxs, prevSeqs, prevCost = idxs, seqs, cost
	}
	return slices.Min(prevCost), true
}

// sequences enumerates the record's feasible column sequences, flat,
// len(idxs) columns each, or reports false past maxColumnStates.
func (m *columnModel) sequences(idxs []int) ([]int, bool) {
	n := len(idxs)
	var out []int
	seq := make([]int, n)
	var walk func(k, from int) bool
	walk = func(k, from int) bool {
		if k == n {
			if len(out) == maxColumnStates*n {
				return false
			}
			out = append(out, seq...)
			return true
		}
		i := idxs[k]
		for c := max(from, m.lo[i]); c <= m.hi[i]; c++ {
			seq[k] = c
			if !walk(k+1, c+1) {
				return false
			}
		}
		return true
	}
	return out, walk(0, 0)
}

// alignedPairs lists the positions (a, b) of neighboring records'
// extracts prev[a], cur[b] that share a first token type — the pairs
// col-align constraints link.
func (m *columnModel) alignedPairs(prev, cur []int) [][2]int {
	pairs := make([][2]int, 0, len(prev)*len(cur))
	for a, i := range prev {
		for b, j := range cur {
			if m.types[i] == m.types[j] {
				pairs = append(pairs, [2]int{a, b})
			}
		}
	}
	return pairs
}

// alignCost counts the col-align violations between two neighboring
// records' column sequences. Extracts i and j in columns ci ≠ cj
// violate |y_ic − y_jc| = 0 at c = ci when ci lies in j's window and
// at c = cj when cj lies in i's (a constraint exists only where the
// windows overlap); equal columns violate none.
func (m *columnModel) alignCost(pairs [][2]int, prev, cur, prevCols, curCols []int) int {
	cost := 0
	for _, ab := range pairs {
		i, j := prev[ab[0]], cur[ab[1]]
		ci, cj := prevCols[ab[0]], curCols[ab[1]]
		if ci == cj {
			continue
		}
		if m.inWindow(j, ci) {
			cost++
		}
		if m.inWindow(i, cj) {
			cost++
		}
	}
	return cost
}

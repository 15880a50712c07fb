package csp

import "tableseg/internal/token"

// Test-only exports for the external csp_test package, whose Table 4
// instances come from the full pipeline (which imports this package).
var (
	RefSolveWSAT          = refSolveWSAT
	SolutionDiff          = solutionDiff
	MatchEncodedReference = matchEncodedReference
	ColumnRuns            = columnRuns
)

// ColumnProblem builds AssignColumns' problem for one page (nil when
// there is nothing to search) and its DP floor.
func ColumnProblem(records []int, types []token.Type) (*Problem, int, bool) {
	m := newColumnModel(records, types)
	floor, ok := m.floor()
	return m.p, floor, ok
}

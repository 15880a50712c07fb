package csp

// Test-only exports for the external csp_test package, whose Table 4
// instances come from the full pipeline (which imports this package).
var (
	RefSolveWSAT          = refSolveWSAT
	SolutionDiff          = solutionDiff
	MatchEncodedReference = matchEncodedReference
)

package csp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// exactSearchDigest is the SHA-256 of exactTranscript, recorded from
// the exact solver before its per-node trail and incidence lists were
// replaced by a shared undo stack and per-variable counts. The
// transcript holds every verdict and assignment at node budgets small
// enough to stop the search part-way, so it pins the node order, not
// just the final answers.
const exactSearchDigest = "2c54622f9bbd06f160e64c1fd06c3f844c0de4dd3d211a865c6fea6a80d18bc7"

// exactTranscript solves seeded instances — planted satisfiable ones
// and random ones with negative coefficients, duplicate terms and
// ignored soft constraints, many UNSAT — at several node budgets.
func exactTranscript(t *testing.T) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(101))
	var out []byte
	for trial := 0; trial < 120; trial++ {
		var p *Problem
		if trial%2 == 0 {
			p, _ = plantInstance(rng, 8+rng.Intn(20), 8+rng.Intn(30))
		} else {
			p = NewProblem()
			n := 4 + rng.Intn(16)
			for i := 0; i < n; i++ {
				p.AddVar("")
			}
			for c := 0; c < 2+rng.Intn(2*n); c++ {
				terms := make([]Term, 1+rng.Intn(4))
				for k := range terms {
					terms[k] = Term{Coef: rng.Intn(5) - 2, Var: rng.Intn(n)}
				}
				op, rhs := Op(rng.Intn(3)), rng.Intn(3)-1
				if rng.Intn(4) == 0 {
					p.AddSoft(terms, op, rhs, 1, "soft")
				} else {
					p.AddHard(terms, op, rhs, "hard")
				}
			}
		}
		for _, budget := range []int{3, 10, 40, 0} {
			assign, sat, err := SolveExact(context.Background(), p, ExactParams{MaxNodes: budget})
			switch {
			case errors.Is(err, ErrSearchLimit):
				out = fmt.Appendf(out, "%d/%d limit\n", trial, budget)
			case err != nil:
				t.Fatal(err)
			default:
				out = fmt.Appendf(out, "%d/%d %v %v\n", trial, budget, sat, assign)
			}
		}
	}
	return out
}

func TestExactMatchesRecordedSearch(t *testing.T) {
	sum := sha256.Sum256(exactTranscript(t))
	if got := hex.EncodeToString(sum[:]); got != exactSearchDigest {
		t.Errorf("exact search transcript digest %s, want %s", got, exactSearchDigest)
	}
}

// TestExactAllocationsIndependentOfNodes: the search allocates its
// working set once; DFS nodes share one undo stack.
func TestExactAllocationsIndependentOfNodes(t *testing.T) {
	// Pigeonhole: 7 pigeons, 6 holes — UNSAT, and bounds propagation
	// alone cannot see it, so the search visits thousands of nodes.
	p := NewProblem()
	const pigeons, holes = 7, 6
	var x [pigeons][holes]int
	for i := range x {
		for j := range x[i] {
			x[i][j] = p.AddVar("")
		}
	}
	for i := range x {
		terms := make([]Term, holes)
		for j := range terms {
			terms[j] = Term{1, x[i][j]}
		}
		p.AddHard(terms, EQ, 1, "pigeon")
	}
	for j := 0; j < holes; j++ {
		terms := make([]Term, pigeons)
		for i := range terms {
			terms[i] = Term{1, x[i][j]}
		}
		p.AddHard(terms, LE, 1, "hole")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, sat, err := SolveExact(context.Background(), p, ExactParams{}); sat || err != nil {
			t.Fatalf("pigeonhole: sat=%v err=%v", sat, err)
		}
	})
	// The search state, its slices and the result: ten allocations
	// today, against one per node (~4,800) with a per-node trail.
	if allocs > 12 {
		t.Errorf("SolveExact made %v allocations on a pigeonhole search, want at most 12", allocs)
	}
}

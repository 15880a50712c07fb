package csp

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"tableseg/internal/token"
)

// randomColumnPage generates an AssignColumns input: 2–5 records of
// 1–maxLen extracts, record ids in shuffled order, a few unassigned
// extracts between them, and first types drawn from a 2–3 type
// alphabet, so types repeat within and across records. Records of
// different lengths give partly overlapping column windows.
func randomColumnPage(rng *rand.Rand, maxLen int) ([]int, []token.Type) {
	alphabet := []token.Type{
		token.TypeOf("John"), token.TypeOf("221B"), token.TypeOf("(740)"), token.TypeOf("x"),
	}[:2+rng.Intn(2)]
	draw := func() token.Type { return alphabet[rng.Intn(len(alphabet))] }
	var records []int
	var types []token.Type
	ids := rng.Perm(2 + rng.Intn(4))
	for _, r := range ids {
		for k := 1 + rng.Intn(maxLen); k > 0; k-- {
			if rng.Intn(6) == 0 {
				records, types = append(records, -1), append(types, draw())
			}
			records, types = append(records, r), append(types, draw())
		}
	}
	return records, types
}

// bruteColumnFloor is the least soft penalty Problem.Eval gives any
// hard-feasible assignment of p, by enumerating all 2^n of them.
func bruteColumnFloor(p *Problem) int {
	n := p.NumVars()
	assign := make([]bool, n)
	best := -1
	for mask := 0; mask < 1<<n; mask++ {
		for v := range assign {
			assign[v] = mask>>v&1 == 1
		}
		if !p.Feasible(assign) {
			continue
		}
		if _, soft, _ := p.Eval(assign); best < 0 || soft < best {
			best = soft
		}
	}
	return best
}

// TestColumnFloorMatchesBruteForce: the DP floor is the exact least
// soft penalty over hard-feasible column assignments.
func TestColumnFloorMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	checked, positive := 0, 0
	for trial := 0; checked < 500; trial++ {
		records, types := randomColumnPage(rng, 4)
		m := newColumnModel(records, types)
		if m.p == nil || m.p.NumVars() > 16 {
			continue
		}
		checked++
		got, ok := m.floor()
		if !ok {
			t.Fatalf("trial %d: floor over the state cap on %d records", trial, len(m.recs))
		}
		if want := bruteColumnFloor(m.p); got != want {
			t.Errorf("trial %d (records %v, types %v): floor = %d, brute force = %d", trial, records, types, got, want)
		}
		if got > 0 {
			positive++
		}
	}
	// The floor must be exercised where the early stop matters.
	if positive < checked/10 {
		t.Errorf("only %d of %d pages have a positive floor", positive, checked)
	}
}

// columnRuns runs the column search on one page twice: stopping at the
// floor, as AssignColumns does, and with floor 0 — the search as it ran
// before the DP, which stops only at soft penalty 0. It returns both
// decoded outputs and solutions (nil when there is nothing to search).
func columnRuns(records []int, types []token.Type, params WSATParams) (got, want []int, certified, full *Solution) {
	m := newColumnModel(records, types)
	if m.p == nil {
		return m.decode(nil), m.decode(nil), nil, nil
	}
	ctx := context.Background()
	certified, err := solveWSATFloor(ctx, m.p, params, m.stopFloor(params))
	if err != nil {
		panic(err)
	}
	full, err = solveWSATFloor(ctx, m.p, params, 0)
	if err != nil {
		panic(err)
	}
	return m.decode(certified), m.decode(full), certified, full
}

// TestAssignColumnsCertifiedMatchesFullBudget: stopping at the floor
// yields the assignment the full budget returns, on random pages and
// search budgets, and AssignColumns is that certified run.
func TestAssignColumnsCertifiedMatchesFullBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	stoppedEarly := 0
	for trial := 0; trial < 200; trial++ {
		records, types := randomColumnPage(rng, 6)
		params := WSATParams{
			Seed:           int64(trial),
			MaxFlips:       100 + rng.Intn(400),
			Restarts:       1 + rng.Intn(6),
			DynamicWeights: trial%2 == 0,
		}
		got, want, certified, full := columnRuns(records, types, params)
		name := fmt.Sprintf("trial %d (records %v)", trial, records)
		if !slices.Equal(got, want) {
			t.Errorf("%s: certified columns %v, full budget %v", name, got, want)
		}
		if cols := assignColumns(t, records, types, params); !slices.Equal(cols, got) {
			t.Errorf("%s: AssignColumns = %v, certified run %v", name, cols, got)
		}
		if full == nil {
			continue
		}
		if !slices.Equal(certified.Assign, full.Assign) || certified.Feasible != full.Feasible {
			t.Errorf("%s: certified and full-budget assignments differ", name)
		}
		if certified.Flips > full.Flips {
			t.Errorf("%s: certified run flipped %d times, full budget %d", name, certified.Flips, full.Flips)
		}
		if certified.SoftPenalty > 0 && certified.Flips < full.Flips {
			stoppedEarly++
			// The stop comes at the flip that reaches the floor, not
			// at the end of that restart's budget or in a later restart.
			if certified.Flips == certified.Restarts*params.MaxFlips || certified.Restarts != certified.Restart+1 {
				t.Errorf("%s: certified run went on past the floor (%d flips, %d restarts, best in restart %d)",
					name, certified.Flips, certified.Restarts, certified.Restart)
			}
		}
	}
	if stoppedEarly == 0 {
		t.Error("no run stopped early at a positive floor")
	}
}

// TestColumnFloorFallsBack: the search runs with floor 0 — exactly the
// plain search — when the floor exceeds HardWeight or a record has more
// column sequences than the DP enumerates.
func TestColumnFloorFallsBack(t *testing.T) {
	name, addr, phone := token.TypeOf("John"), token.TypeOf("221B"), token.TypeOf("(740)")
	// Records [name addr addr], [name addr], [name addr addr]: the
	// short record's addr aligns with one neighbor addr and misses the
	// other, once per neighbor, so the floor is 2.
	records := []int{0, 0, 0, 1, 1, 2, 2, 2}
	types := []token.Type{name, addr, addr, name, addr, name, addr, addr}
	m := newColumnModel(records, types)
	floor, ok := m.floor()
	if !ok || floor != 2 {
		t.Fatalf("floor = %d, %v; want 2", floor, ok)
	}
	if got := m.stopFloor(WSATParams{}); got != floor {
		t.Errorf("default HardWeight: stopFloor = %d, want the floor %d", got, floor)
	}
	if got := m.stopFloor(WSATParams{HardWeight: floor}); got != floor {
		t.Errorf("HardWeight = floor: stopFloor = %d, want %d", got, floor)
	}
	if got := m.stopFloor(WSATParams{HardWeight: floor - 1}); got != 0 {
		t.Errorf("HardWeight below the floor: stopFloor = %d, want 0", got)
	}

	// A 12-extract record sets 12 columns; a 6-extract record then has
	// C(11, 5) = 462 column sequences, over maxColumnStates.
	records, types = nil, nil
	for r, n := range []int{12, 6} {
		for k := 0; k < n; k++ {
			records = append(records, r)
			types = append(types, []token.Type{name, addr, phone}[k%3])
		}
	}
	m = newColumnModel(records, types)
	if _, ok := m.floor(); ok {
		t.Fatal("floor computed past maxColumnStates")
	}
	if got := m.stopFloor(WSATParams{}); got != 0 {
		t.Fatalf("over the state cap: stopFloor = %d, want 0", got)
	}
	params := WSATParams{Seed: 4, MaxFlips: 300, Restarts: 2}
	_, _, certified, full := columnRuns(records, types, params)
	if d := solutionDiff(certified, full); d != "" || certified.Flips != full.Flips {
		t.Errorf("over the state cap the run differs from the plain search: %s (flips %d vs %d)", d, certified.Flips, full.Flips)
	}
}

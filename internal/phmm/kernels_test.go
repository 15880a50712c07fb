package phmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"tableseg/internal/token"
)

// This file holds the dense reference kernels the banded workspace
// kernels of inference.go replaced, the bit-exact differential tests
// against them, and the kernel microbenchmarks.

// bandInstance builds a synthetic page of k records with up to c
// fields each: field types follow the column, candidate sets name the
// true record with some ambiguity, gaps and noise. Pages with k ≥ 50
// are long enough for the forward and backward lattices to underflow
// to exact zeros far from the current record.
func bandInstance(rng *rand.Rand, k, c int) Instance {
	pool := []token.Type{
		token.TypeOf("Alpha") | token.TypeOf("Beta"),
		token.TypeOf("123"),
		token.TypeOf("lower"),
		token.TypeOf("CAPS"),
		token.TypeOf("Mixed1x"),
		token.TypeOf("Alpha") | token.TypeOf("42"),
	}
	inst := Instance{NumRecords: k}
	for r := 0; r < k; r++ {
		for f := 0; f < c; f++ {
			if f > 0 && rng.Intn(6) == 0 {
				continue // missing field
			}
			ty := pool[f%len(pool)]
			if rng.Intn(10) == 0 {
				ty = pool[rng.Intn(len(pool))]
			}
			var cands []int
			switch x := rng.Intn(40); {
			case x < 3:
				// no detail-page evidence
			case x < 5:
				cands = []int{rng.Intn(k)}
			case x < 9 && r+1 < k:
				cands = []int{r, r + 1}
			case x < 12 && r > 0:
				cands = []int{r - 1, r}
			default:
				cands = []int{r}
			}
			inst.TypeVecs = append(inst.TypeVecs, ty.Vector())
			inst.Candidates = append(inst.Candidates, cands)
		}
	}
	return inst
}

// denseEmis is the reference emission table: evidence recomputed per
// cell, as every EM iteration used to.
func denseEmis(m *Model, inst Instance) [][]float64 {
	emis := make([][]float64, len(inst.TypeVecs))
	for i := range emis {
		emis[i] = make([]float64, m.K*m.C)
		typeP := make([]float64, m.C)
		for c := 0; c < m.C; c++ {
			typeP[c] = m.emitType(inst.TypeVecs[i], c)
		}
		for r := 0; r < m.K; r++ {
			w := evidence(inst.Candidates[i], r, m.params.Epsilon)
			for c := 0; c < m.C; c++ {
				emis[i][r*m.C+c] = w * typeP[c]
			}
		}
	}
	return emis
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// rowsDiffer returns the first bitwise difference between two tables.
func rowsDiffer(name string, got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("%s[%d]: %d cells, want %d", name, i, len(got[i]), len(want[i]))
		}
		for k := range want[i] {
			if !sameBits(got[i][k], want[i][k]) {
				return fmt.Errorf("%s[%d][%d] = %v (%#x), want %v (%#x)", name, i, k,
					got[i][k], math.Float64bits(got[i][k]), want[i][k], math.Float64bits(want[i][k]))
			}
		}
	}
	return nil
}

// checkAgainstDense compares the lattice's emission table, posteriors
// and Viterbi decode with the dense reference kernels, bit for bit.
// withViterbi is false only for lattices the decode cannot handle
// (an unreachable row leaves no complete path to trace back).
func checkAgainstDense(t *testing.T, label string, lt *lattice, withViterbi bool) {
	t.Helper()
	if err := rowsDiffer("emis", lt.emis, denseEmis(lt.m, lt.inst)); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want := denseForwardBackward(lt)
	got := lt.forwardBackward()
	for _, err := range []error{
		rowsDiffer("gamma", got.gamma, want.gamma),
		rowsDiffer("xiCont", got.xiCont, want.xiCont),
		rowsDiffer("endC", [][]float64{got.endC}, [][]float64{want.endC}),
	} {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	if !sameBits(got.loglik, want.loglik) {
		t.Fatalf("%s: loglik %v, want %v", label, got.loglik, want.loglik)
	}
	if !withViterbi {
		return
	}
	wantRec, wantCol, wantLP := denseViterbi(lt)
	gotRec, gotCol, gotLP := lt.viterbi()
	if !sameBits(gotLP, wantLP) {
		t.Fatalf("%s: viterbi score %v, want %v", label, gotLP, wantLP)
	}
	for i := range wantRec {
		if gotRec[i] != wantRec[i] || gotCol[i] != wantCol[i] {
			t.Fatalf("%s: viterbi extract %d at (%d,%d), want (%d,%d)", label, i,
				gotRec[i], gotCol[i], wantRec[i], wantCol[i])
		}
	}
}

// bandedCells counts the record rows the last forwardBackward skipped.
func bandedCells(lt *lattice) int {
	skipped := 0
	for i := 0; i < lt.n; i++ {
		skipped += lt.lo[i] + (lt.m.K - 1 - lt.hi[i])
	}
	return skipped
}

// TestBandedKernelsMatchDense checks the workspace kernels against the
// dense reference on pages long enough to underflow, with one lattice
// reused across a fresh and a fitted model in both orders, so stale
// slab contents from a wider or narrower band would show.
func TestBandedKernelsMatchDense(t *testing.T) {
	rng := testRNG(31)
	skipped := 0
	for trial := 0; trial < 4; trial++ {
		k, c := 50+rng.Intn(30), 4+rng.Intn(3)
		inst := bandInstance(rng, k, c)
		p := DefaultParams()
		p.Seed = int64(trial)
		p.PeriodModel = trial%2 == 0
		fresh := NewModel(k, c, p)
		fitted := NewModel(k, c, p)
		fitted.params.MaxIter = 4
		if _, _, err := fitted.FitContext(context.Background(), inst); err != nil {
			t.Fatal(err)
		}
		lt := newLattice(fresh, inst)
		for step, m := range []*Model{fresh, fitted, fresh} {
			lt.m = m
			lt.refresh()
			checkAgainstDense(t, fmt.Sprintf("trial %d (K=%d C=%d n=%d) model %d", trial, k, c, lt.n, step), lt, true)
			skipped += bandedCells(lt)
		}
	}
	if skipped == 0 {
		t.Fatal("no lattice row was banded; the instances no longer exercise the exact-zero band")
	}
}

// TestBandedKernelsUniformInjection zeroes one position's evidence so
// the forward pass takes the uniform-injection fallback, which resets
// the band to record 0 mid-page.
func TestBandedKernelsUniformInjection(t *testing.T) {
	inst := bandInstance(testRNG(37), 60, 5)
	m := NewModel(60, 5, DefaultParams())
	lt := newLattice(m, inst)
	checkAgainstDense(t, "before", lt, true) // leave a narrow band behind
	row := 2 * lt.n / 3
	clear(lt.wts[row])
	lt.refresh()
	want := denseForwardBackward(lt)
	got := lt.forwardBackward()
	if lt.lo[row-1] == 0 || lt.lo[row] != 0 {
		t.Fatalf("injection did not reset the band: lo[%d]=%d lo[%d]=%d", row-1, lt.lo[row-1], row, lt.lo[row])
	}
	if err := rowsDiffer("gamma", got.gamma, want.gamma); err != nil {
		t.Fatal(err)
	}
	if err := rowsDiffer("xiCont", got.xiCont, want.xiCont); err != nil {
		t.Fatal(err)
	}
	if err := rowsDiffer("endC", [][]float64{got.endC}, [][]float64{want.endC}); err != nil {
		t.Fatal(err)
	}
	if !sameBits(got.loglik, want.loglik) {
		t.Fatalf("loglik %v, want %v", got.loglik, want.loglik)
	}
}

// resultsDiffer returns the first bitwise difference between two
// segmentations, parameters included.
func resultsDiffer(got, want *Result) error {
	if got.Iters != want.Iters || len(got.Records) != len(want.Records) {
		return fmt.Errorf("iters %d / %d records, want %d / %d", got.Iters, len(got.Records), want.Iters, len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] || got.Columns[i] != want.Columns[i] {
			return fmt.Errorf("extract %d at (%d,%d), want (%d,%d)", i, got.Records[i], got.Columns[i], want.Records[i], want.Columns[i])
		}
	}
	for _, err := range []error{
		rowsDiffer("scores", [][]float64{{got.LogLik, got.MAPLogProb}}, [][]float64{{want.LogLik, want.MAPLogProb}}),
		rowsDiffer("confidence", [][]float64{got.Confidence}, [][]float64{want.Confidence}),
		rowsDiffer("theta", got.Model.Theta, want.Model.Theta),
		rowsDiffer("trans", got.Model.Trans, want.Model.Trans),
		rowsDiffer("pi", [][]float64{got.Model.Pi}, [][]float64{want.Model.Pi}),
	} {
		if err != nil {
			return err
		}
	}
	return nil
}

// TestSegmentConcurrentCallsIdentical runs SegmentContext on one
// shared instance from several goroutines (meaningful under -race):
// each call owns its workspace, so every result must match a serial
// run bit for bit.
func TestSegmentConcurrentCallsIdentical(t *testing.T) {
	inst := bandInstance(testRNG(41), 30, 5)
	want, err := segment(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g], errs[g] = SegmentContext(context.Background(), inst, DefaultParams())
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if err := resultsDiffer(got[g], want); err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

// TestFitAllocationsIndependentOfIterations gates the workspace: every
// buffer is allocated once per FitContext call, so doubling the EM
// iterations must not add a single allocation.
func TestFitAllocationsIndependentOfIterations(t *testing.T) {
	inst := bandInstance(testRNG(43), 30, 5)
	allocs := func(maxIter int) float64 {
		p := DefaultParams()
		p.MaxIter = maxIter
		p.Tol = 1e-300 // never converge early
		iters := 0
		n := testing.AllocsPerRun(3, func() {
			m := NewModel(inst.NumRecords, 5, p)
			_, iters, _ = m.FitContext(context.Background(), inst)
		})
		if iters != maxIter {
			t.Fatalf("MaxIter %d: EM stopped after %d iterations", maxIter, iters)
		}
		return n
	}
	if a5, a10 := allocs(5), allocs(10); a10 > a5 {
		t.Errorf("FitContext allocs grow with iterations: %v at MaxIter 5, %v at MaxIter 10", a5, a10)
	}
}

// benchLattice is the kernel microbenchmarks' input: a synthetic
// 200-record, 6-column page (about the size of the 200-record
// property-tax page) under a model after three EM iterations.
func benchLattice(b *testing.B) *lattice {
	b.Helper()
	inst := bandInstance(testRNG(47), 200, 6)
	p := DefaultParams()
	p.MaxIter = 3
	m := NewModel(inst.NumRecords, 6, p)
	if _, _, err := m.FitContext(context.Background(), inst); err != nil {
		b.Fatal(err)
	}
	return newLattice(m, inst)
}

func BenchmarkForwardBackward(b *testing.B) {
	lt := benchLattice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.forwardBackward()
	}
}

func BenchmarkViterbi(b *testing.B) {
	lt := benchLattice(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lt.viterbi()
	}
}

func BenchmarkFit(b *testing.B) {
	inst := bandInstance(testRNG(47), 200, 6)
	p := DefaultParams()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewModel(inst.NumRecords, 6, p)
		if _, _, err := m.FitContext(context.Background(), inst); err != nil {
			b.Fatal(err)
		}
	}
}

// denseForwardBackward is the reference forward–backward pass: every
// cell of every row, freshly allocated. The banded workspace kernel
// must reproduce it bit for bit.
func denseForwardBackward(lt *lattice) *posteriors {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	S := K * C
	skip := m.params.SkipPenalty

	haz := make([]float64, C)
	for c := 0; c < C; c++ {
		haz[c] = m.hazard(c)
	}

	alpha := make([][]float64, n)
	scale := make([]float64, n)

	// Forward.
	for i := 0; i < n; i++ {
		alpha[i] = make([]float64, S)
		if i == 0 {
			for r := 0; r < K; r++ {
				alpha[0][r*C] = lt.startWeight(r) * lt.emis[0][r*C]
			}
		} else {
			// Record-end mass per record at i-1.
			E := make([]float64, K)
			for r := 0; r < K; r++ {
				for c := 0; c < C; c++ {
					E[r] += alpha[i-1][r*C+c] * haz[c]
				}
			}
			// Aggregate new-record mass M(r) = Σ_{r0<r} E(r0)·skipW(r−r0−1).
			M := make([]float64, K)
			for r := 1; r < K; r++ {
				M[r] = skip*M[r-1] + (1-skip)*E[r-1]
			}
			pen := lt.contPenalty[i]
			for r := 0; r < K; r++ {
				// New record lands in column 0.
				alpha[i][r*C] = M[r] * lt.emis[i][r*C]
				// Within-record column advances (penalized when the
				// bootstrap demands a record start here).
				for cPrev := 0; cPrev < C; cPrev++ {
					a := alpha[i-1][r*C+cPrev]
					if zeroProb(a) {
						continue
					}
					stay := a * (1 - haz[cPrev]) * pen
					alpha[i][r*C+cPrev] += stay * stallWeight * lt.emis[i][r*C+cPrev]
					for c := cPrev + 1; c < C; c++ {
						tr := m.Trans[cPrev][c]
						if zeroProb(tr) {
							continue
						}
						alpha[i][r*C+c] += stay * tr * lt.emis[i][r*C+c]
					}
				}
			}
		}
		s := 0.0
		for _, v := range alpha[i] {
			s += v
		}
		if s <= 0 || math.IsNaN(s) {
			// Degenerate evidence (all-zero row): inject uniform mass
			// so the pass completes; the caller sees the -Inf-free
			// loglik degrade instead of a crash.
			for k := range alpha[i] {
				alpha[i][k] = 1.0 / float64(S)
			}
			s = 1e-300
		}
		scale[i] = s
		inv := 1.0 / s
		for k := range alpha[i] {
			alpha[i][k] *= inv
		}
	}

	// Backward, with the final-record closing factor h(c) at i = n−1.
	beta := make([][]float64, n)
	beta[n-1] = make([]float64, S)
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			beta[n-1][r*C+c] = haz[c]
		}
	}
	for i := n - 2; i >= 0; i-- {
		beta[i] = make([]float64, S)
		next := i + 1
		// eb(r) = emis_{next}(r,0)·beta_{next}(r,0); suffix recurrence
		// B(r) = Σ_{r'>r} skipW(r'−r−1)·eb(r').
		B := make([]float64, K)
		for r := K - 2; r >= 0; r-- {
			eb := lt.emis[next][(r+1)*C] * beta[next][(r+1)*C]
			B[r] = skip*B[r+1] + (1-skip)*eb
		}
		inv := 1.0 / scale[next]
		pen := lt.contPenalty[next]
		for r := 0; r < K; r++ {
			for c := 0; c < C; c++ {
				v := haz[c] * B[r]
				cont := stallWeight * lt.emis[next][r*C+c] * beta[next][r*C+c]
				for c2 := c + 1; c2 < C; c2++ {
					tr := m.Trans[c][c2]
					if zeroProb(tr) {
						continue
					}
					cont += tr * lt.emis[next][r*C+c2] * beta[next][r*C+c2]
				}
				v += (1 - haz[c]) * pen * cont
				beta[i][r*C+c] = v * inv
			}
		}
	}

	post := &posteriors{
		gamma:  make([][]float64, n),
		xiCont: make([][]float64, C),
		endC:   make([]float64, C),
	}
	for c := 0; c < C; c++ {
		post.xiCont[c] = make([]float64, C)
	}
	for i := 0; i < n; i++ {
		post.loglik += math.Log(scale[i])
		g := make([]float64, S)
		z := 0.0
		for k := 0; k < S; k++ {
			g[k] = alpha[i][k] * beta[i][k]
			z += g[k]
		}
		if z > 0 {
			inv := 1.0 / z
			for k := range g {
				g[k] *= inv
			}
		}
		post.gamma[i] = g
	}
	// Closing mass contributes to the likelihood.
	closing := 0.0
	for k := 0; k < S; k++ {
		closing += alpha[n-1][k] * beta[n-1][k]
	}
	if closing > 0 {
		post.loglik += math.Log(closing)
	}

	// Transition posteriors (column advances and record ends).
	for i := 0; i < n-1; i++ {
		next := i + 1
		B := make([]float64, K)
		for r := K - 2; r >= 0; r-- {
			eb := lt.emis[next][(r+1)*C] * beta[next][(r+1)*C]
			B[r] = skip*B[r+1] + (1-skip)*eb
		}
		// Per-position normalizer: total transition mass.
		type cell struct {
			c1, c2 int
			v      float64
		}
		var contCells []cell
		endMass := make([]float64, C)
		z := 0.0
		pen := lt.contPenalty[next]
		for r := 0; r < K; r++ {
			for c := 0; c < C; c++ {
				a := alpha[i][r*C+c]
				if zeroProb(a) {
					continue
				}
				e := a * haz[c] * B[r] / scale[next]
				endMass[c] += e
				z += e
				stay := a * (1 - haz[c]) * pen / scale[next]
				for c2 := c + 1; c2 < C; c2++ {
					tr := m.Trans[c][c2]
					if zeroProb(tr) {
						continue
					}
					v := stay * tr * lt.emis[next][r*C+c2] * beta[next][r*C+c2]
					if v > 0 {
						contCells = append(contCells, cell{c, c2, v})
						z += v
					}
				}
			}
		}
		if z <= 0 {
			continue
		}
		inv := 1.0 / z
		for _, cc := range contCells {
			post.xiCont[cc.c1][cc.c2] += cc.v * inv
		}
		for c := 0; c < C; c++ {
			post.endC[c] += endMass[c] * inv
		}
	}
	// Final records end where the chain closes.
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			post.endC[c] += post.gamma[n-1][r*C+c]
		}
	}
	return post
}

// denseViterbi is the reference MAP decode, with a logv call per cell
// term and fresh tables.
func denseViterbi(lt *lattice) (records, columns []int, logProb float64) {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	S := K * C
	skip := m.params.SkipPenalty
	haz := make([]float64, C)
	for c := 0; c < C; c++ {
		haz[c] = m.hazard(c)
	}
	logv := func(x float64) float64 {
		if x <= 0 {
			return math.Inf(-1)
		}
		return math.Log(x)
	}

	delta := make([][]float64, n)
	back := make([][]int, n)
	for i := range delta {
		delta[i] = make([]float64, S)
		back[i] = make([]int, S)
		for k := range delta[i] {
			delta[i][k] = math.Inf(-1)
			back[i][k] = -1
		}
	}
	for r := 0; r < K; r++ {
		delta[0][r*C] = logv(lt.startWeight(r)) + logv(lt.emis[0][r*C])
	}
	logSkip, logStay := logv(skip), logv(1-skip)
	// endBest/endFrom: per record, the best record-closing score at the
	// previous position; M/MFrom: the max-plus prefix aggregation of
	// "start a new record at r" (mirrors the forward pass's linear-time
	// skip recurrence, keeping Viterbi O(n·K·C²)).
	endBest := make([]float64, K)
	endFrom := make([]int, K)
	M := make([]float64, K)
	MFrom := make([]int, K)
	for i := 1; i < n; i++ {
		for r0 := 0; r0 < K; r0++ {
			endBest[r0], endFrom[r0] = math.Inf(-1), -1
			for c0 := 0; c0 < C; c0++ {
				if v := delta[i-1][r0*C+c0] + logv(haz[c0]); v > endBest[r0] {
					endBest[r0], endFrom[r0] = v, r0*C+c0
				}
			}
		}
		M[0], MFrom[0] = math.Inf(-1), -1
		for r := 1; r < K; r++ {
			M[r], MFrom[r] = M[r-1]+logSkip, MFrom[r-1]
			if v := endBest[r-1] + logStay; v > M[r] {
				M[r], MFrom[r] = v, endFrom[r-1]
			}
		}
		for r := 0; r < K; r++ {
			// New record from any earlier record's end.
			if MFrom[r] >= 0 {
				delta[i][r*C] = M[r] + logv(lt.emis[i][r*C])
				back[i][r*C] = MFrom[r]
			}
			// Within-record advance (columns strictly increase, so
			// c ≥ 1 here and the cell starts at −Inf), penalized at
			// bootstrap-forced starts.
			penLog := logv(lt.contPenalty[i])
			for c := 0; c < C; c++ {
				emisLog := logv(lt.emis[i][r*C+c])
				bestV, bestFrom := delta[i][r*C+c], back[i][r*C+c]
				// Stall move (same column, tiny weight).
				if v := delta[i-1][r*C+c] + logv(1-haz[c]) + logv(stallWeight) + penLog + emisLog; v > bestV {
					bestV, bestFrom = v, r*C+c
				}
				for c0 := 0; c0 < c; c0++ {
					tr := m.Trans[c0][c]
					if zeroProb(tr) {
						continue
					}
					v := delta[i-1][r*C+c0] + logv(1-haz[c0]) + logv(tr) + penLog + emisLog
					if v > bestV {
						bestV, bestFrom = v, r*C+c0
					}
				}
				delta[i][r*C+c] = bestV
				back[i][r*C+c] = bestFrom
			}
		}
	}
	// Close the final record.
	bestEnd, bestK := math.Inf(-1), 0
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			v := delta[n-1][r*C+c] + logv(haz[c])
			if v > bestEnd {
				bestEnd, bestK = v, r*C+c
			}
		}
	}
	records = make([]int, n)
	columns = make([]int, n)
	k := bestK
	for i := n - 1; i >= 0; i-- {
		records[i] = k / C
		columns[i] = k % C
		k = back[i][k]
	}
	return records, columns, bestEnd
}

package phmm

import (
	"math"

	"tableseg/internal/token"
)

// stallWeight is a tiny probability of remaining in the same column for
// one step. The paper's model advances columns strictly, but degenerate
// inputs (whole-page fallback with very long runs) can otherwise exhaust
// the column set and disconnect the lattice; the stall keeps every
// position reachable at negligible probability.
const stallWeight = 1e-6

// lattice is the workspace of one SegmentContext/FitContext call: the
// instance's evidence weights and bootstrap penalties, which never
// change, plus flat n·K·C slabs for the emission table and the
// forward, backward and posterior lattices. It is allocated once and
// reused by every EM iteration, the Viterbi decode and the confidence
// pass, so an iteration allocates nothing. A lattice belongs to one
// call and is not safe for concurrent use.
type lattice struct {
	m    *Model
	inst Instance
	n    int
	// contPenalty[i] multiplies within-record continuation into
	// position i: 1 normally, a small factor when the bootstrap says
	// S_i = true (D_{i-1} ∩ D_i = ∅). Softness keeps dirty data (whose
	// spurious disjointness can demand more record starts than records
	// exist) from making the whole lattice unreachable.
	contPenalty []float64
	// wts[i][r] = w_i(r), the detail-page evidence.
	wts [][]float64
	// emis[i][r*C+c] = w_i(r) · P(T_i | C=c) under m's current
	// parameters; refresh recomputes it after every M-step.
	emis [][]float64

	// The scaled forward and backward lattices. alpha[i] is exactly
	// zero below record lo[i] and beta[i] exactly zero above record
	// hi[i]; cells outside those bands may hold stale values from an
	// earlier pass and are never read.
	alpha, beta [][]float64
	scale       []float64
	lo, hi      []int
	// bsum[i][r] = Σ_{r'>r} skipW(r'−r−1)·emis_{i+1}(r',0)·beta_{i+1}(r',0),
	// the backward pass's record-skip suffix sums, reused by the ξ pass.
	bsum [][]float64
	// back holds Viterbi backpointers, allocated by the first decode.
	back [][]int32

	post  posteriors
	stats emStats

	// Per-pass scratch.
	haz, typeP, endMass []float64
	E, M                []float64
	contCells           []xiCell
}

// xiCell is one nonzero within-record column transition of the ξ pass.
type xiCell struct {
	c1, c2 int
	v      float64
}

func newLattice(m *Model, inst Instance) *lattice {
	n, K, C := len(inst.TypeVecs), m.K, m.C
	S := K * C
	lt := &lattice{
		m:           m,
		inst:        inst,
		n:           n,
		contPenalty: make([]float64, n),
		wts:         rows[float64](n, K),
		emis:        rows[float64](n, S),
		alpha:       rows[float64](n, S),
		beta:        rows[float64](n, S),
		scale:       make([]float64, n),
		lo:          make([]int, n),
		hi:          make([]int, n),
		bsum:        rows[float64](n, K),
		post: posteriors{
			gamma:  rows[float64](n, S),
			lo:     make([]int, n),
			hi:     make([]int, n),
			xiCont: rows[float64](C, C),
			endC:   make([]float64, C),
		},
		stats: emStats{
			typeTrue: rows[float64](C, token.NumTypes),
			colMass:  make([]float64, C),
		},
		haz:     make([]float64, C),
		typeP:   make([]float64, C),
		endMass: make([]float64, C),
		E:       make([]float64, K),
		M:       make([]float64, K),
	}
	forced := forcedStarts(inst.Candidates)
	soft := m.params.Epsilon
	if soft < 1e-12 {
		soft = 1e-12
	}
	for i := range lt.contPenalty {
		if forced[i] {
			lt.contPenalty[i] = soft
		} else {
			lt.contPenalty[i] = 1
		}
	}
	for i, w := range lt.wts {
		for r := range w {
			w[r] = evidence(inst.Candidates[i], r, m.params.Epsilon)
		}
	}
	for i := range lt.post.hi {
		lt.post.hi[i] = -1 // every gamma row starts empty
	}
	lt.refresh()
	return lt
}

// rows cuts one flat n·w slab into n row views of width w.
func rows[T any](n, w int) [][]T {
	slab := make([]T, n*w)
	out := make([][]T, n)
	for i := range out {
		out[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// refresh recomputes the emission table for lt.m's current parameters.
// The evidence weights depend only on the instance, so a refresh costs
// one type likelihood per (position, column) and one product per cell.
func (lt *lattice) refresh() {
	m := lt.m
	for i, row := range lt.emis {
		for c := range lt.typeP {
			lt.typeP[c] = m.emitType(lt.inst.TypeVecs[i], c)
		}
		for r, w := range lt.wts[i] {
			for c, p := range lt.typeP {
				row[r*m.C+c] = w * p
			}
		}
	}
}

// startWeight is the prior for the first observed record being r:
// geometric in the number of skipped leading records.
func (lt *lattice) startWeight(r int) float64 {
	skip := lt.m.params.SkipPenalty
	w := 1 - skip
	for k := 0; k < r; k++ {
		w *= skip
	}
	return w
}

// posteriors is the E-step output. It lives in the lattice and is
// overwritten by the next forwardBackward.
type posteriors struct {
	// gamma[i][r*C+c] = P(R_i=r, C_i=c | observations); every cell
	// outside records lo[i]..hi[i] is zero.
	gamma  [][]float64
	lo, hi []int
	// xiCont[c][c'] = expected count of within-record column
	// transitions c→c'.
	xiCont [][]float64
	// endC[c] = expected count of records ending at column c.
	endC []float64
	// loglik is the scaled-forward log-likelihood.
	loglik float64
}

// forwardBackward runs the structured forward–backward pass of §5.2.3.
// The record-skip transitions are aggregated with prefix/suffix
// recurrences so the pass costs O(n·K·C²) rather than O(n·(K·C)²).
//
// It visits only cells that can be nonzero. A record far behind the
// current one continues only through the stall weight, so its forward
// mass underflows to exactly zero: forward runs over records ≥ lo[i-1]
// and everything else reads [lo[i], hi[i]]. Skipped cells would only
// have added +0 or multiplied a zero factor, so every result is
// bit-identical to the dense pass (DESIGN.md §6, decision 5).
func (lt *lattice) forwardBackward() *posteriors {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	S := K * C
	skip := m.params.SkipPenalty
	alpha, beta, scale, lo, hi := lt.alpha, lt.beta, lt.scale, lt.lo, lt.hi

	haz := lt.haz
	for c := range haz {
		haz[c] = m.hazard(c)
	}

	// Forward.
	for i := 0; i < n; i++ {
		row := alpha[i]
		from := 0 // records below from are exactly zero at i
		if i == 0 {
			clear(row)
			for r := 0; r < K; r++ {
				row[r*C] = lt.startWeight(r) * lt.emis[0][r*C]
			}
		} else {
			from = lo[i-1]
			prev := alpha[i-1]
			// Record-end mass per record at i-1.
			E := lt.E
			for r := from; r < K; r++ {
				E[r] = 0
				for c := 0; c < C; c++ {
					E[r] += prev[r*C+c] * haz[c]
				}
			}
			// Aggregate new-record mass M(r) = Σ_{r0<r} E(r0)·skipW(r−r0−1).
			M := lt.M
			M[from] = 0
			for r := from + 1; r < K; r++ {
				M[r] = skip*M[r-1] + (1-skip)*E[r-1]
			}
			pen := lt.contPenalty[i]
			emis := lt.emis[i]
			clear(row[from*C:])
			for r := from; r < K; r++ {
				// New record lands in column 0.
				row[r*C] = M[r] * emis[r*C]
				// Within-record column advances (penalized when the
				// bootstrap demands a record start here).
				for cPrev := 0; cPrev < C; cPrev++ {
					a := prev[r*C+cPrev]
					if zeroProb(a) {
						continue
					}
					stay := a * (1 - haz[cPrev]) * pen
					row[r*C+cPrev] += stay * stallWeight * emis[r*C+cPrev]
					for c := cPrev + 1; c < C; c++ {
						tr := m.Trans[cPrev][c]
						if zeroProb(tr) {
							continue
						}
						row[r*C+c] += stay * tr * emis[r*C+c]
					}
				}
			}
		}
		s := 0.0
		for _, v := range row[from*C:] {
			s += v
		}
		if s <= 0 || math.IsNaN(s) {
			// Degenerate evidence (all-zero row): inject uniform mass
			// so the pass completes; the caller sees the -Inf-free
			// loglik degrade instead of a crash.
			for k := range row {
				row[k] = 1.0 / float64(S)
			}
			s = 1e-300
			from = 0
		}
		scale[i] = s
		inv := 1.0 / s
		for k := from * C; k < S; k++ {
			row[k] *= inv
		}
		lo[i] = from
		for k := from * C; k < S; k++ {
			if !zeroProb(row[k]) {
				lo[i] = k / C
				break
			}
		}
	}

	// Backward, with the final-record closing factor h(c) at i = n−1.
	// beta[i] at record r draws only on records ≥ r at i+1, so it is
	// exactly zero above hi[i+1]. It has no lower band: low records
	// feed earlier positions, where forward mass may still sit.
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			beta[n-1][r*C+c] = haz[c]
		}
	}
	hi[n-1] = K - 1
	for i := n - 2; i >= 0; i-- {
		next := i + 1
		top := hi[next]
		row, bn, en := beta[i], beta[next], lt.emis[next]
		// eb(r) = emis_{next}(r,0)·beta_{next}(r,0); suffix recurrence
		// B(r) = Σ_{r'>r} skipW(r'−r−1)·eb(r'), zero from top on.
		B := lt.bsum[i]
		if top >= 0 {
			B[top] = 0
		}
		for r := top - 1; r >= 0; r-- {
			eb := en[(r+1)*C] * bn[(r+1)*C]
			B[r] = skip*B[r+1] + (1-skip)*eb
		}
		inv := 1.0 / scale[next]
		pen := lt.contPenalty[next]
		hi[i] = -1
		for r := 0; r <= top; r++ {
			for c := 0; c < C; c++ {
				v := haz[c] * B[r]
				cont := stallWeight * en[r*C+c] * bn[r*C+c]
				for c2 := c + 1; c2 < C; c2++ {
					tr := m.Trans[c][c2]
					if zeroProb(tr) {
						continue
					}
					cont += tr * en[r*C+c2] * bn[r*C+c2]
				}
				v += (1 - haz[c]) * pen * cont
				row[r*C+c] = v * inv
				if !zeroProb(row[r*C+c]) {
					hi[i] = r
				}
			}
		}
	}

	post := &lt.post
	post.loglik = 0
	for i := 0; i < n; i++ {
		post.loglik += math.Log(scale[i])
		g := post.gamma[i]
		if post.lo[i] <= post.hi[i] {
			clear(g[post.lo[i]*C : (post.hi[i]+1)*C]) // the previous pass's band
		}
		post.lo[i], post.hi[i] = lo[i], hi[i]
		a, b := alpha[i], beta[i]
		z := 0.0
		for k := lo[i] * C; k < (hi[i]+1)*C; k++ {
			g[k] = a[k] * b[k]
			z += g[k]
		}
		if z > 0 {
			inv := 1.0 / z
			for k := lo[i] * C; k < (hi[i]+1)*C; k++ {
				g[k] *= inv
			}
		}
	}
	// Closing mass contributes to the likelihood.
	closing := 0.0
	for k := lo[n-1] * C; k < S; k++ {
		closing += alpha[n-1][k] * beta[n-1][k]
	}
	if closing > 0 {
		post.loglik += math.Log(closing)
	}

	// Transition posteriors (column advances and record ends). Records
	// above hi[next] have B = 0 and beta_{next} = 0, so they add
	// nothing.
	for c := range post.xiCont {
		clear(post.xiCont[c])
	}
	clear(post.endC)
	for i := 0; i < n-1; i++ {
		next := i + 1
		B, a, bn, en := lt.bsum[i], alpha[i], beta[next], lt.emis[next]
		// Per-position normalizer: total transition mass.
		cells := lt.contCells[:0]
		endMass := lt.endMass
		clear(endMass)
		z := 0.0
		pen := lt.contPenalty[next]
		for r := lo[i]; r <= hi[next]; r++ {
			for c := 0; c < C; c++ {
				av := a[r*C+c]
				if zeroProb(av) {
					continue
				}
				e := av * haz[c] * B[r] / scale[next]
				endMass[c] += e
				z += e
				stay := av * (1 - haz[c]) * pen / scale[next]
				for c2 := c + 1; c2 < C; c2++ {
					tr := m.Trans[c][c2]
					if zeroProb(tr) {
						continue
					}
					v := stay * tr * en[r*C+c2] * bn[r*C+c2]
					if v > 0 {
						cells = append(cells, xiCell{c, c2, v})
						z += v
					}
				}
			}
		}
		lt.contCells = cells
		if z <= 0 {
			continue
		}
		inv := 1.0 / z
		for _, cc := range cells {
			post.xiCont[cc.c1][cc.c2] += cc.v * inv
		}
		for c := 0; c < C; c++ {
			post.endC[c] += endMass[c] * inv
		}
	}
	// Final records end where the chain closes.
	last := post.gamma[n-1]
	for r := post.lo[n-1]; r <= post.hi[n-1]; r++ {
		for c := 0; c < C; c++ {
			post.endC[c] += last[r*C+c]
		}
	}
	return post
}

// viterbi computes the MAP (R, C) assignment (arg max P(R,C|T,D)).
// Only the backpointers need every position; the scores live in two
// rows, the previous position's and the current one.
func (lt *lattice) viterbi() (records, columns []int, logProb float64) {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	S := K * C
	skip := m.params.SkipPenalty
	logv := func(x float64) float64 {
		if x <= 0 {
			return math.Inf(-1)
		}
		return math.Log(x)
	}
	// Log tables for the per-cell terms: the same values the per-cell
	// logv calls would give, added in the same order.
	logHaz, logCont := make([]float64, C), make([]float64, C)
	logTrans := rows[float64](C, C)
	for c := 0; c < C; c++ {
		h := m.hazard(c)
		logHaz[c], logCont[c] = logv(h), logv(1-h)
		for c2 := range logTrans[c] {
			logTrans[c][c2] = logv(m.Trans[c][c2])
		}
	}
	logStall := logv(stallWeight)

	if lt.back == nil {
		lt.back = rows[int32](n, S)
	}
	back := lt.back
	prev, cur := make([]float64, S), make([]float64, S)
	resetRow := func(i int) {
		for k := range cur {
			cur[k] = math.Inf(-1)
			back[i][k] = -1
		}
	}
	resetRow(0)
	for r := 0; r < K; r++ {
		cur[r*C] = logv(lt.startWeight(r)) + logv(lt.emis[0][r*C])
	}
	logSkip, logStay := logv(skip), logv(1-skip)
	// endBest/endFrom: per record, the best record-closing score at the
	// previous position; M/MFrom: the max-plus prefix aggregation of
	// "start a new record at r" (mirrors the forward pass's linear-time
	// skip recurrence, keeping Viterbi O(n·K·C²)).
	endBest, M := lt.E, lt.M
	endFrom, MFrom := make([]int, K), make([]int, K)
	for i := 1; i < n; i++ {
		prev, cur = cur, prev
		resetRow(i)
		bk, emis := back[i], lt.emis[i]
		for r0 := 0; r0 < K; r0++ {
			endBest[r0], endFrom[r0] = math.Inf(-1), -1
			for c0 := 0; c0 < C; c0++ {
				if v := prev[r0*C+c0] + logHaz[c0]; v > endBest[r0] {
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
		penLog := logv(lt.contPenalty[i])
		for r := 0; r < K; r++ {
			// New record from any earlier record's end.
			if MFrom[r] >= 0 {
				cur[r*C] = M[r] + logv(emis[r*C])
				bk[r*C] = int32(MFrom[r])
			}
			// Within-record advance (columns strictly increase, so
			// c ≥ 1 here and the cell starts at −Inf), penalized at
			// bootstrap-forced starts.
			for c := 0; c < C; c++ {
				emisLog := logv(emis[r*C+c])
				bestV, bestFrom := cur[r*C+c], int(bk[r*C+c])
				// Stall move (same column, tiny weight).
				if v := prev[r*C+c] + logCont[c] + logStall + penLog + emisLog; v > bestV {
					bestV, bestFrom = v, r*C+c
				}
				for c0 := 0; c0 < c; c0++ {
					if zeroProb(m.Trans[c0][c]) {
						continue
					}
					v := prev[r*C+c0] + logCont[c0] + logTrans[c0][c] + penLog + emisLog
					if v > bestV {
						bestV, bestFrom = v, r*C+c0
					}
				}
				cur[r*C+c] = bestV
				bk[r*C+c] = int32(bestFrom)
			}
		}
	}
	// Close the final record.
	bestEnd, bestK := math.Inf(-1), 0
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			v := cur[r*C+c] + logHaz[c]
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
		k = int(back[i][k])
	}
	return records, columns, bestEnd
}

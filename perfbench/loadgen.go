package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	// Due is when the request should be sent, from schedule start.
	Due time.Duration
	// Input indexes the request pool; Step indexes the rate ladder.
	Input, Step int
}

// sample is what happened to one arrival.
type sample struct {
	arrival
	// Sent and Done are offsets from schedule start.
	Sent, Done time.Duration
	Err        error
}

// latency is timed from when the request was due, so a stall charges
// its wait to every request due after it.
func (s sample) latency() time.Duration { return s.Done - s.Due }

// late is how far behind schedule the generator sent the request.
func (s sample) late() time.Duration { return s.Sent - s.Due }

// loadResult is one open-loop run.
type loadResult struct {
	samples []sample
	// backlogMax is the most requests that were due but not yet sent
	// at any send.
	backlogMax int
	elapsed    time.Duration
	// chunkRates are the requests per second of each capacity chunk.
	chunkRates latencies
}

// openLoop sends the schedule (sorted by Due) from `workers`
// goroutines, each taking the next arrival in due order, waiting until
// it is due and sending it with do(ctx, index). A worker busy with a slow request
// leaves later arrivals to the others; when all are busy, arrivals
// wait, and their latency includes the wait.
func openLoop(ctx context.Context, sched []arrival, workers int, do func(ctx context.Context, i int) error) loadResult {
	samples := make([]sample, len(sched))
	var next atomic.Int64
	var backlogMax atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(time.Hour)
			defer timer.Stop()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				if wait := a.Due - time.Since(start); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						samples[i] = sample{arrival: a, Sent: time.Since(start), Done: time.Since(start), Err: ctx.Err()}
						continue
					}
				}
				sent := time.Since(start)
				due := sort.Search(len(sched), func(k int) bool { return sched[k].Due > sent })
				for b := int64(due - i - 1); ; {
					cur := backlogMax.Load()
					if b <= cur || backlogMax.CompareAndSwap(cur, b) {
						break
					}
				}
				err := do(ctx, i)
				samples[i] = sample{arrival: a, Sent: sent, Done: time.Since(start), Err: err}
			}
		}()
	}
	wg.Wait()
	return loadResult{samples: samples, backlogMax: int(backlogMax.Load()), elapsed: time.Since(start)}
}

// closedLoop keeps `workers` requests outstanding: each worker sends
// request i = 0, 1, ..., n-1 as soon as its previous one is done, and
// takes no new one once d has passed. Sample i (in order) carries Input
// i, and its Due is when it was sent. elapsed runs until the last
// response.
func closedLoop(ctx context.Context, n, workers int, d time.Duration, do func(ctx context.Context, i int) error) loadResult {
	var (
		mu      sync.Mutex
		samples []sample
		next    atomic.Int64
		wg      sync.WaitGroup
	)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				sent := time.Since(start)
				err := do(ctx, i)
				s := sample{arrival: arrival{Due: sent, Input: i}, Sent: sent, Done: time.Since(start), Err: err}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(samples, func(a, b int) bool { return samples[a].Input < samples[b].Input })
	return loadResult{samples: samples, elapsed: time.Since(start)}
}

// rateSchedule lays out a ladder of fixed rates, each step sending
// perStep requests evenly spaced at its rate, one step after another.
// next returns, per slot, the inputs of the requests that share the
// slot's due time (two for a back-to-back duplicate).
func rateSchedule(rates []float64, perStep int, next func(step int) []int) []arrival {
	var sched []arrival
	var t time.Duration
	for step, r := range rates {
		gap := time.Duration(float64(time.Second) / r)
		for sent := 0; sent < perStep; {
			for _, in := range next(step) {
				sched = append(sched, arrival{Due: t, Input: in, Step: step})
				sent++
			}
			t += gap
		}
	}
	return sched
}

// stepReport is one rate step's outcome against the latency limit.
type stepReport struct {
	rate         float64
	n, failed    int
	lat          latencies // failed requests count as +Inf
	lastLate     time.Duration
	p99          float64
	p99OK, meets bool
}

// judgeSteps evaluates every rate step: a step meets the limit when no
// request failed, its p99 (reportable under the percentile rule) is
// within limit, and its last request went out within limit of its due
// time (no growing backlog).
func judgeSteps(rates []float64, samples []sample, limit time.Duration) []stepReport {
	steps := make([]stepReport, len(rates))
	for i, r := range rates {
		steps[i].rate = r
	}
	for _, s := range samples {
		st := &steps[s.Step]
		st.n++
		if s.Err != nil {
			st.failed++
			st.lat = append(st.lat, math.Inf(1))
		} else {
			st.lat = append(st.lat, ms(s.latency()))
		}
		st.lastLate = s.late() // samples are in due order: the step's last one wins
	}
	for i := range steps {
		st := &steps[i]
		st.p99, st.p99OK = percentile(st.lat.sorted(), 0.99)
		st.meets = st.failed == 0 && st.p99OK && st.p99 <= ms(limit) && st.lastLate <= limit
	}
	return steps
}

// sloRate is the highest rate whose step meets the limit, or 0.
func sloRate(steps []stepReport) float64 {
	slo := 0.0
	for _, st := range steps {
		if st.meets && st.rate > slo {
			slo = st.rate
		}
	}
	return slo
}

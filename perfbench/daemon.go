package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/engine"
	"tableseg/internal/eval"
	"tableseg/internal/experiments"
	"tableseg/internal/server"
	"tableseg/internal/sitegen"
)

// daemonRates is the fixed arrival-rate ladder (requests per second),
// run lowest first with the same request count at each rate, each step
// an open loop of its own. On a
// 2-vCPU Xeon the daemon's closed-loop capacity is 250-700 requests
// per second, depending on how busy the machine's other tenants keep it,
// so the top step runs near or past capacity. latency_ms is taken at
// the reference rate, the first, where queueing is light and the
// number reflects the per-request work; no backlog left by a faster
// step can reach it.
var daemonRates = []float64{100, 200, 400}

// capacityShare is the share of a run's time given to the capacity
// phase, which measures pages_per_s in a closed loop; the rate ladder
// gets the rest.
const capacityShare = 0.3

// daemonLimit is the p99 latency limit a rate must meet to count
// towards slo_rps. About one request in fifteen falls back to the
// whole page and spends 30-40 ms in the CSP even on an idle daemon.
const daemonLimit = 80 * time.Millisecond

// The traffic mix, per schedule slot: a fresh input (token and
// template misses), a repeat of an earlier input (artifact hits), or a
// back-to-back duplicate pair of a fresh input (coalescing). The shares
// (30% fresh, 55% repeats, 15% duplicate pairs) are an assumption, not
// measured traffic: neither the paper nor the repository has request
// logs. README.md gives how much a second split moves the metrics.
const (
	mixFresh  = 0.3
	mixRepeat = 0.55
)

// warmupRequests are sent, on inputs outside the schedule, before
// measuring.
const warmupRequests = 20

// propertyTax are the site profiles requests are drawn from.
var propertyTax = []string{"allegheny", "butler", "lee"}

// request is one pre-encoded csp request and its expected response.
type request struct {
	body []byte
	// want is the canonical JSON of the expected records, from an
	// in-process core.SegmentContext run, or wantCode the wire code of
	// its typed failure; counts is its score against the generator's
	// truth.
	want      []byte
	wantCode  apiv1.Code
	counts    eval.Counts
	truthLen  int
	encodeDur time.Duration
}

// daemonInput generates request k of a run: a property-tax site from
// its own generator seed, targeting one of its two list pages.
func daemonInput(seed int64, k int) (request, error) {
	p, err := sitegen.ProfileBySlug(propertyTax[k%len(propertyTax)])
	if err != nil {
		return request{}, err
	}
	site := sitegen.Generate(p, seed*1_000_003+int64(k))
	target := (k / len(propertyTax)) % 2
	in := experiments.BuildInput(site, target)
	truth := site.Lists[target].Truth
	seg, segErr := core.SegmentContext(context.Background(), in, core.DefaultOptions(core.CSP))
	r := request{wantCode: errCode(segErr), counts: score(seg, truth), truthLen: len(truth)}
	if segErr == nil {
		if r.want, err = json.Marshal(apiv1.ResponseFromSegmentation(seg, nil).Records); err != nil {
			return request{}, err
		}
	}
	req := apiv1.SegmentRequest{Method: "csp", Target: in.Target, WantStats: true}
	for _, pg := range in.ListPages {
		req.ListPages = append(req.ListPages, apiv1.Page{Name: pg.Name, HTML: pg.HTML})
	}
	for _, pg := range in.DetailPages {
		req.DetailPages = append(req.DetailPages, apiv1.Page{Name: pg.Name, HTML: pg.HTML})
	}
	t0 := time.Now()
	r.body, err = json.Marshal(&req)
	r.encodeDur = time.Since(t0)
	return r, err
}

// daemonSchedule lays out the open-loop schedule for a run and returns
// it with the number of distinct inputs it uses.
func daemonSchedule(seed int64, perStep int) ([]arrival, int) {
	rng := rand.New(rand.NewSource(seed))
	inputs := 0
	sched := rateSchedule(daemonRates, perStep, func(int) []int {
		switch x := rng.Float64(); {
		case x < mixFresh || inputs == 0:
			inputs++
			return []int{inputs - 1}
		case x < mixFresh+mixRepeat:
			return []int{rng.Intn(inputs)}
		default:
			inputs++
			return []int{inputs - 1, inputs - 1}
		}
	})
	return sched, inputs
}

// daemon is an in-process tablesegd on a loopback listener.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client
}

func startDaemon(rec *recorder) (*daemon, error) {
	cfg := server.Config{Engine: engine.Config{
		Options:     core.DefaultOptions(core.CSP),
		Concurrency: concurrency,
	}}
	if rec != nil {
		cfg.Engine.Observer = rec
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     concurrency,
				MaxIdleConnsPerHost: concurrency,
				DisableCompression:  true,
			},
		},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the listener, drains the server and waits for Serve to
// return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.client.CloseIdleConnections()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, d.srv.Drain(ctx))
}

// reply is the client's view of one successful response.
type reply struct {
	resp   apiv1.SegmentResponse
	decode time.Duration
}

// post sends one request and checks the response's records.
func (d *daemon) post(ctx context.Context, r *request) (reply, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+apiv1.PathSegment, bytes.NewReader(r.body))
	if err != nil {
		return reply{}, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := d.client.Do(hreq)
	if err != nil {
		return reply{}, err
	}
	body, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("reading response: %w", err)
	}
	if hresp.StatusCode != http.StatusOK {
		var e apiv1.ErrorResponse
		if r.wantCode != "" && json.Unmarshal(body, &e) == nil && e.Error != nil && e.Error.Code == r.wantCode {
			return reply{}, nil // the typed failure the reference run gave
		}
		return reply{}, fmt.Errorf("status %d: %s", hresp.StatusCode, bytes.TrimSpace(body))
	}
	if r.wantCode != "" {
		return reply{}, fmt.Errorf("succeeded where the reference run failed with %s", r.wantCode)
	}
	var rep reply
	t0 := time.Now()
	err = json.Unmarshal(body, &rep.resp)
	rep.decode = time.Since(t0)
	if err != nil {
		return reply{}, fmt.Errorf("decoding response: %w", err)
	}
	got, err := json.Marshal(rep.resp.Records)
	if err != nil {
		return reply{}, err
	}
	if !bytes.Equal(got, r.want) {
		return reply{}, errors.New("records differ from the in-process reference")
	}
	return rep, nil
}

func (d *daemon) varz(ctx context.Context) (*apiv1.Metrics, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+apiv1.PathVarz, nil)
	if err != nil {
		return nil, err
	}
	hresp, err := d.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	var m apiv1.Metrics
	if err := json.NewDecoder(hresp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("decoding /varz: %w", err)
	}
	return &m, nil
}

// capacityChunk is how long the capacity phase runs between two
// calibrations.
const capacityChunk = time.Second

// measureCapacity sends the schedule's requests in slot order, in a
// closed loop of `concurrency` connections, for d: in passes that each
// start a fresh daemon (cold caches), so every pass sees the schedule's
// mix, each pass in chunks of capacityChunk with a calibration after
// each. A sample's Input is the slot whose request it carried.
func measureCapacity(sched []arrival, reqs []request, d time.Duration, cal *calibrator) (loadResult, error) {
	var total loadResult
	for total.elapsed < d {
		cd, err := startDaemon(nil)
		if err != nil {
			return total, err
		}
		for from := 0; from < len(sched) && total.elapsed < d; {
			lr := closedLoop(context.Background(), len(sched)-from, concurrency, min(capacityChunk, d-total.elapsed), func(ctx context.Context, i int) error {
				_, err := cd.post(ctx, &reqs[sched[from+i].Input])
				return err
			})
			for _, s := range lr.samples {
				s.Input += from
				total.samples = append(total.samples, s)
			}
			total.elapsed += lr.elapsed
			total.chunkRates = append(total.chunkRates, float64(len(lr.samples))/lr.elapsed.Seconds())
			from += len(lr.samples)
			cal.sample()
		}
		if err := cd.stop(); err != nil {
			return total, err
		}
	}
	return total, nil
}

// ladder runs the open-loop schedule one rate step at a time, each step
// an open loop of its own that starts on time, with a calibration
// after each. Samples keep the schedule's due times.
func ladder(sched []arrival, cal *calibrator, do func(ctx context.Context, i int) error) loadResult {
	var total loadResult
	for lo, hi := 0, 0; lo < len(sched); lo = hi {
		for hi = lo; hi < len(sched) && sched[hi].Step == sched[lo].Step; hi++ {
		}
		base := sched[lo].Due
		step := make([]arrival, hi-lo)
		for k := range step {
			step[k] = sched[lo+k]
			step[k].Due -= base
		}
		from := lo
		lr := openLoop(context.Background(), step, concurrency, func(ctx context.Context, i int) error {
			return do(ctx, from+i)
		})
		for k, s := range lr.samples {
			s.arrival = sched[from+k]
			s.Sent += base
			s.Done += base
			total.samples = append(total.samples, s)
		}
		total.backlogMax = max(total.backlogMax, lr.backlogMax)
		total.elapsed += lr.elapsed
		cal.sample()
	}
	return total
}

// traceBlock is the length of the alternating traced and untraced
// windows of a traced daemon run.
const traceBlock = 250 * time.Millisecond

func runDaemon(cfg runConfig) (*report, error) {
	var invSum float64
	for _, r := range daemonRates {
		invSum += 1 / r
	}
	perStep := int((1 - capacityShare) * cfg.dur.Seconds() / invSum)
	if perStep < 1 {
		perStep = 1
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
		rec.on.Store(false) // the schedule's traced windows switch it on
	}
	var (
		sched []arrival
		reqs  []request
		d     *daemon
	)
	setup, cleanup, err := repeatSetup(cfg.cal, func() (func(), error) {
		var n int
		sched, n = daemonSchedule(cfg.seed, perStep)
		reqs = make([]request, n)
		err := parallel(n, func(k int) error {
			var err error
			reqs[k], err = daemonInput(cfg.seed, k)
			return err
		})
		if err != nil {
			return nil, err
		}
		if d, err = startDaemon(rec); err != nil {
			return nil, err
		}
		stop := func() {
			if err := d.stop(); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: stopping daemon: %v\n", err)
			}
		}
		for w := 0; w < warmupRequests; w++ {
			r, err := daemonInput(cfg.seed, n+w)
			if err == nil {
				_, err = d.post(context.Background(), &r)
			}
			if err != nil {
				stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		return stop, nil
	})
	if err != nil {
		return nil, err
	}
	defer cleanup()

	rep := &report{}
	fresh, dups := 0, 0
	seen := make([]bool, len(reqs))
	for i, a := range sched {
		switch {
		case i > 0 && sched[i-1].Input == a.Input && sched[i-1].Due == a.Due:
			dups++
		case !seen[a.Input]:
			fresh++
		}
		seen[a.Input] = true
	}
	rep.say("daemon: %d csp requests over property-tax inputs (%d distinct), rate steps %v rps x %d requests each, %d connections", len(sched), len(reqs), daemonRates, perStep, concurrency)
	rep.say("mix: %d fresh, %d repeats, %d back-to-back duplicates", fresh, len(sched)-fresh-dups, dups)
	for k := range reqs {
		if reqs[k].wantCode != "" {
			rep.say("expected outcome of input %d: %s, as in its reference run", k, reqs[k].wantCode)
		}
	}

	replies := make([]reply, len(sched))
	traced := func(a arrival) bool { return cfg.trace && (a.Due/traceBlock)%2 == 0 }
	var run e2e
	run.setup = setup
	run.cal = cfg.cal
	run.begin()
	defer run.watch.Stop()
	lr := ladder(sched, cfg.cal, func(ctx context.Context, i int) error {
		a := sched[i]
		if cfg.trace {
			rec.on.Store(traced(a))
		}
		var err error
		replies[i], err = d.post(ctx, &reqs[a.Input])
		return err
	})
	run.unitDone()
	var capRun loadResult
	if !cfg.trace {
		capRun, err = measureCapacity(sched, reqs, time.Duration(capacityShare*float64(cfg.dur)), cfg.cal)
		if err != nil {
			return nil, err
		}
	}
	// tally counts one request towards attempted, failed and f_score.
	tally := func(s sample, r *request) bool {
		run.attempted++
		if s.Err != nil {
			run.failed++
			run.counts = run.counts.Add(eval.Counts{FN: r.truthLen})
			if run.failed <= 3 {
				rep.say("FAIL request due %v: %v", s.Due, s.Err)
			}
			return false
		}
		run.counts = run.counts.Add(r.counts)
		return true
	}
	var capOK int
	var capLat latencies
	for _, s := range capRun.samples {
		if tally(s, &reqs[sched[s.Input].Input]) {
			capOK++
			capLat = append(capLat, ms(s.latency()))
		}
	}
	stepLat := make([]latencies, len(daemonRates))
	var tracedLat, plainLat latencies // at the reference rate
	for _, s := range lr.samples {
		if !tally(s, &reqs[s.Input]) {
			continue
		}
		run.lat = append(run.lat, ms(s.latency()))
		stepLat[s.Step] = append(stepLat[s.Step], ms(s.latency()))
		switch {
		case daemonRates[s.Step] != daemonRates[0]:
		case traced(s.arrival):
			tracedLat = append(tracedLat, ms(s.latency()))
		default:
			plainLat = append(plainLat, ms(s.latency()))
		}
	}
	rep.attempted, rep.failed = run.attempted, run.failed
	steps := judgeSteps(daemonRates, lr.samples, daemonLimit)
	if !cfg.trace {
		rep.values = run.end()
		// Both gated timings come from the capacity phase, where the
		// daemon is busy and its speed follows the calibration's; at
		// 100 rps it idles between requests, and how fast a shared
		// machine wakes it varies more than the calibration shows. The
		// median, not the mean: about one request in fifteen falls back
		// to the whole page and spends 30-40 ms in the CSP, and how many
		// do varies with the seed.
		rep.values["pages_per_s"] = float64(capOK) / capRun.elapsed.Seconds()
		p50, _ := percentile(capLat.sorted(), 0.5)
		rep.values["latency_ms"] = p50
		run.summary(rep)
		rep.say("capacity: %d requests back to back from %d connections, a fresh daemon per pass over the schedule, in %.2fs; pages_per_s is their successes per second, latency_ms their p50; latency %s",
			len(capRun.samples), concurrency, capRun.elapsed.Seconds(), capLat.describe())
		rep.say("capacity chunks rps %.0f", capRun.chunkRates)
		for i, st := range steps {
			rep.say("rate %4.0f rps: n=%d failed=%d last-request-late=%.2fms meets-p99<=%v:%v latency %s",
				st.rate, st.n, st.failed, ms(st.lastLate), daemonLimit, st.meets, stepLat[i].describe())
		}
		rep.say("slo_rps=%.0f (highest rate with p99 <= %v, no failures, no growing backlog)", sloRate(steps), daemonLimit)
		return rep, nil
	}

	rt := run.watch.runtimeStats()
	vz, err := d.varz(context.Background())
	if err != nil {
		return nil, err
	}
	m := newLayerValues()
	var tasks []taskRecord
	var overheads, lates, decodes latencies
	var busy time.Duration
	for i, s := range lr.samples {
		lates = append(lates, ms(s.late()))
		if s.Err != nil || !traced(s.arrival) {
			continue
		}
		rp := &replies[i]
		st := rp.resp.Stats
		if st == nil {
			continue // an expected typed failure
		}
		decodes = append(decodes, ms(rp.decode))
		if rp.resp.Coalesced {
			continue
		}
		wall := time.Duration(st.WallMillis * float64(time.Millisecond))
		t := taskRecord{
			method:     core.CSP,
			latency:    s.Done - s.Sent,
			wall:       wall,
			flips:      st.WSATFlips,
			restarts:   st.WSATRestarts,
			emIters:    st.EMIters,
			pagesLexed: st.TokenCacheMisses,
			relaxed:    rp.resp.CSPStatus == csp.SolvedRelaxed.String(),
			wholePage:  rp.resp.UsedWholePage,
			viaEngine:  true,
		}
		for _, sg := range st.Stages {
			t.stages = append(t.stages, core.StageTiming{Name: sg.Stage, Calls: sg.Calls, Duration: time.Duration(sg.Millis * float64(time.Millisecond))})
		}
		tasks = append(tasks, t)
		busy += wall
		overheads = append(overheads, ms(t.latency-wall))
	}
	addStageLayers(m, tasks)
	var counters engineCounters
	counters.TokenHits, counters.TokenMisses = vz.Engine.TokenHits, vz.Engine.TokenMisses
	counters.TemplateHits, counters.TemplateMisses = vz.Engine.TemplateHits, vz.Engine.TemplateMisses
	if len(vz.Engine.Tiers) > 0 {
		t := vz.Engine.Tiers[0]
		counters.memHits, counters.memMisses, counters.memPuts = t.Hits, t.Misses, t.Puts
		counters.memEvictions, counters.memResidentMax = t.Evictions, t.Bytes
	}
	counters.fill(m, float64(vz.Engine.TasksCompleted))
	m["engine.busy_frac"] = ratio(float64(busy), float64(concurrency)*float64(lr.elapsed)/2)
	if v, ok := percentile(overheads.sorted(), 0.5); ok {
		m["server.overhead_ms_p50"] = v
	}
	m["server.coalesced_frac"] = ratio(float64(vz.Coalesce.Hits), float64(vz.Coalesce.Hits+vz.Coalesce.Misses))
	rejected := vz.Requests.RateLimited + vz.Requests.QueueFull + vz.Requests.DrainRejected
	m["server.rejected_frac"] = ratio(float64(rejected), float64(vz.Requests.Total))
	var bodyBytes float64
	var encode time.Duration
	for i := range reqs {
		bodyBytes += float64(len(reqs[i].body))
		encode += reqs[i].encodeDur
	}
	m["apiv1.request_kb"] = bodyBytes / float64(len(reqs)) / 1e3
	m["apiv1.encode_ms_per_req"] = ms(encode) / float64(len(reqs))
	m["apiv1.decode_ms_per_req"] = decodes.mean()
	if v, ok := percentile(lates.sorted(), 0.99); ok {
		m["loadgen.late_p99_ms"] = v
	}
	m["loadgen.backlog_max"] = float64(lr.backlogMax)
	m["runtime.gc_cycles_per_page"] = ratio(rt.gcCycles, float64(run.attempted))
	m["runtime.gc_cpu_frac"] = rt.gcCPUFrac
	m["runtime.heap_peak_mb"] = rt.heapPeakMB
	m["trace.overhead_pct"] = overheadPct(tracedLat, plainLat)
	rep.values = m
	rep.say("engine queue wait is inside the server on this workload and shows in server.overhead_ms_p50; csp cut rounds are not on the wire (both read 0)")
	return rep, finishTrace(cfg, rep, tasks, rec, tracedLat, plainLat)
}

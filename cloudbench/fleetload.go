package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pocketcloudlets"
	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/scenario"
	"pocketcloudlets/internal/workload"
)

// reqRec is what the benchmark keeps of one request.
type reqRec struct {
	// atNS is when the request was due, from the start of the round.
	atNS int64
	// latNS is the host latency a user sees: the Fleet.Do call in a
	// closed loop, due time to completion in an open loop.
	latNS int64
	// wallNS is fleet.Response.Wall (Submit to completion).
	wallNS int64
	// lagNS is how late the client issued the request: the gap after
	// the previous reply in a closed loop, the time past its due time
	// in an open loop.
	lagNS   int64
	modelNS int64
	energyJ float64
	radioJ  float64
	// attempts is Response.Attempts (0 with faults off).
	attempts int32
	source   fleet.Source
	hit      bool
	done     bool
}

// fleetEnv is one set-up fleet workload: its generated inputs and a
// serving-ready fleet.
type fleetEnv struct {
	w       workloadSpec
	sc      scale
	seed    int64
	gen     *workload.Generator
	eng     *engine.Engine
	content cachegen.Content
	cfg     fleet.Config
	// tapes holds one request tape per client (closed loop): the
	// client's users' month streams interleaved round-robin, each
	// user's own requests in order.
	tapes [][]fleet.Request
	// events is the open loop's arrival schedule.
	events []loadgen.TraceEvent
	f      *fleet.Fleet
	obs    *observer
	// phases are the set-up steps' host times, by layer.
	phases map[string]time.Duration
}

// setupFleet builds a fleet workload from its seed: population,
// community content, request tapes or schedule, and the fleet.
func setupFleet(w workloadSpec, sc scale, seed int64, tr *tracer) (*fleetEnv, error) {
	env := &fleetEnv{w: w, sc: sc, seed: seed, phases: make(map[string]time.Duration)}
	var err error
	root := tr.newID()
	rootStart := tr.now()
	step := func(name string, fn func()) {
		start := time.Now()
		tr.run(root, name, func(int64) { fn() })
		env.phases[layerOf(name)] += time.Since(start)
	}
	var sim *pocketcloudlets.Simulation
	step("workload.population", func() {
		ucfg := scenario.UniverseConfig()
		sim, err = pocketcloudlets.NewSimulation(pocketcloudlets.SimConfig{Seed: seed, Users: sc.users, UniverseConfig: &ucfg})
	})
	if err != nil {
		return nil, err
	}
	env.gen, env.eng = sim.Generator, sim.Engine
	step("cachegen.community_content", func() {
		env.content, err = sim.CommunityContentFrom(month-1, communityShare, sc.communityUsers)
	})
	if err != nil {
		return nil, err
	}
	if w.kind == "open" {
		step("loadgen.open_events", func() {
			env.events, err = loadgen.OpenEvents(env.gen, loadgen.OpenConfig{
				QPS: sc.qps, Duration: sc.horizon, Month: month, Seed: seed, Arrivals: modeltime.PerUser,
			})
		})
	} else {
		step("workload.tapes", func() { env.setTapes(env.gen.Users()) })
	}
	if err != nil {
		return nil, err
	}
	step("fleet.new", func() { err = env.newFleet() })
	if err != nil {
		return nil, err
	}
	tr.record(root, 0, "client.setup", rootStart, tr.now())
	return env, nil
}

// clientTapes materializes the users' month streams and deals them to
// the clients: user i belongs to client i mod clients, and each client
// interleaves its users round-robin.
func clientTapes(g *workload.Generator, users []workload.UserProfile, month int) [][]fleet.Request {
	perUser := make([][]fleet.Request, len(users))
	for i, up := range users {
		perUser[i] = loadgen.Tape(g, up, month)
	}
	tapes := make([][]fleet.Request, clients)
	for c := range tapes {
		n := 0
		for i := c; i < len(users); i += clients {
			n += len(perUser[i])
		}
		tape := make([]fleet.Request, 0, n)
		for k := 0; len(tape) < n; k++ {
			for i := c; i < len(users); i += clients {
				if k < len(perUser[i]) {
					tape = append(tape, perUser[i][k])
				}
			}
		}
		tapes[c] = tape
	}
	return tapes
}

// setTapes deals the users' month streams to the clients.
func (e *fleetEnv) setTapes(users []workload.UserProfile) {
	e.tapes = clientTapes(e.gen, users, month)
}

// newFleet builds the workload's fleet with a fresh observer.
func (e *fleetEnv) newFleet() error {
	e.obs = &observer{col: loadgen.NewCollector()}
	cfg := fleet.Config{
		Engine:     e.eng,
		Content:    e.content,
		Population: len(e.gen.Users()),
		Observer:   e.obs,
	}
	if e.w.kind == "open" {
		cfg.Options.DisableSuggest = true
	}
	if e.w.storm {
		// Lossy links with a 6s/30s outage duty cycle, three replicas
		// hedged two ways, and processor-sharing backends under
		// background load that reclaim a hedge loser's unexecuted work.
		cfg.Faults = faults.Options{
			Enabled:     true,
			Seed:        e.seed,
			LossProb:    0.2,
			OutageEvery: 30 * time.Second,
			OutageFor:   6 * time.Second,
		}
		// Wall-clock retry pacing never changes a modeled outcome;
		// left on, the benchmark would time sleeps.
		cfg.Retry = faults.RetryPolicy{WallPauseScale: -1}
		cfg.Replicas = 3
		cfg.Hedge = faults.HedgePolicy{CloneFactor: 2, Delay: 30 * time.Millisecond}
		cfg.Backend = backend.Options{
			Enabled:     true,
			Seed:        e.seed,
			ServiceRate: 40,
			QueueDepth:  32,
			Discipline:  backend.PS,
			Offered:     25,
			CancelOnWin: true,
		}
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	e.cfg, e.f = cfg, f
	return nil
}

// close stops the fleet's workers.
func (e *fleetEnv) close() {
	if e.f != nil {
		e.f.Close()
	}
}

// observer is the fleet's Observer: it feeds the loadgen collector, as
// a load run does, and pairs open-loop responses with their requests.
type observer struct {
	col *loadgen.Collector
	tr  *tracer
	// doSpan holds each client's outstanding Do span, so the observe
	// span it causes can name its parent. A client has at most one
	// request in flight.
	doSpan [clients]atomic.Int64
	// observeNS and observeN time Collector.Observe in traced rounds.
	observeNS, observeN atomic.Int64
	open                *openPairing
}

// Observe implements fleet.Observer.
func (o *observer) Observe(r fleet.Response) {
	if o.tr == nil {
		o.col.Observe(r)
		if o.open != nil {
			o.open.complete(r, time.Now(), 0, 0)
		}
		return
	}
	start := o.tr.now()
	o.col.Observe(r)
	end := o.tr.now()
	o.observeNS.Add(end - start)
	o.observeN.Add(1)
	if o.open != nil {
		o.open.complete(r, time.Now(), start, end)
		return
	}
	if parent := o.doSpan[int(r.Req.User)%clients].Load(); parent != 0 {
		o.tr.record(o.tr.newID(), parent, "loadgen.observe", start, end)
	}
}

// openPairing pairs each open-loop response with its request through
// the per-user submission order, which the fleet preserves: the k-th
// response a user gets answers that user's k-th accepted submission.
type openPairing struct {
	start time.Time
	tr    *tracer
	// userOff indexes userEv: user u's events, in submission order, are
	// userEv[userOff[u]:userOff[u+1]].
	userOff, userEv []int32
	// cursor is each user's next position in its event list. A user
	// lives on one shard, served by one worker, so one goroutine
	// writes each entry.
	cursor []int32
	// shed marks events the fleet refused; the generator sets it
	// before submitting the user's next request.
	shed []atomic.Bool
	// span and submitStart hold each traced event's root span id and
	// the time its Submit call began; the generator writes both before
	// submitting.
	span, submitStart []int64
	recs              []reqRec
}

func newOpenPairing(events []loadgen.TraceEvent, users int) *openPairing {
	p := &openPairing{
		userOff:     make([]int32, users+1),
		userEv:      make([]int32, len(events)),
		cursor:      make([]int32, users),
		shed:        make([]atomic.Bool, len(events)),
		span:        make([]int64, len(events)),
		submitStart: make([]int64, len(events)),
		recs:        make([]reqRec, len(events)),
	}
	for _, ev := range events {
		p.userOff[ev.User+1]++
	}
	for u := 0; u < users; u++ {
		p.userOff[u+1] += p.userOff[u]
	}
	fill := append([]int32(nil), p.userOff[:users]...)
	for i, ev := range events {
		p.userEv[fill[ev.User]] = int32(i)
		fill[ev.User]++
	}
	return p
}

// complete books one response against its event.
func (p *openPairing) complete(r fleet.Response, now time.Time, obsStart, obsEnd int64) {
	if r.Shed || r.Canceled {
		return
	}
	u := int(r.Req.User)
	pos := p.userOff[u] + p.cursor[u]
	for p.shed[p.userEv[pos]].Load() {
		pos++
	}
	p.cursor[u] = pos - p.userOff[u] + 1
	idx := p.userEv[pos]
	rec := &p.recs[idx]
	rec.latNS = int64(now.Sub(p.start))
	rec.done = true
	fillRec(rec, r)
	if id := p.span[idx]; id != 0 {
		p.tr.record(p.tr.newID(), id, "fleet.serve", p.submitStart[idx], obsStart)
		p.tr.record(p.tr.newID(), id, "loadgen.observe", obsStart, obsEnd)
	}
}

func fillRec(rec *reqRec, r fleet.Response) {
	rec.wallNS = int64(r.Wall)
	rec.modelNS = int64(r.Outcome.ResponseTime())
	rec.energyJ = r.EnergyJ
	rec.radioJ = r.RadioJ
	rec.attempts = int32(r.Attempts)
	rec.source = r.Source
	rec.hit = r.Outcome.Hit
}

// latencyWindow cuts a timed phase into windows by due time. The
// reported latency percentiles are medians over windows of the
// percentile within each window, so one stall — a collection, a host
// hiccup — moves the windows it hits rather than the whole run.
const latencyWindow = 500 * time.Millisecond

// minWindowSamples is the fewest requests a window needs to count:
// enough for a p99 with ten samples beyond it.
const minWindowSamples = 1000

// spanEvery keeps spans for one request in this many; every request is
// still timed. Sampling keeps the span log small at 10^5 requests/s.
const spanEvery = 8

// round is one timed phase of a workload.
type round struct {
	traced  bool
	elapsed time.Duration
	cpu     time.Duration
	rt      rtDelta
	heapMB  float64
	recs    []reqRec
	// attempted and failed follow the output contract: failed is
	// shed + errors + canceled. completed counts answered requests (for
	// daily-updates, simulated user-days).
	attempted, failed, completed int
	// win50US and win99US are the round's host latency percentiles in
	// microseconds, one per latency window.
	win50US, win99US []float64
	digest           string
	digestText       string
	problems         []string
	// layer holds per-layer metrics measured by a traced round.
	layer map[string]float64
}

// runClosed replays the clients' tapes against the fleet, each client
// waiting for every reply.
func (e *fleetEnv) runClosed(tr *tracer) *round {
	rd := &round{traced: tr != nil}
	e.obs.tr = tr
	perClient := make([][]reqRec, clients)
	var wg sync.WaitGroup
	runtime.GC()
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tape := e.tapes[c]
			recs := make([]reqRec, len(tape))
			last := time.Now()
			for i, req := range tape {
				var id int64
				if tr != nil && i%spanEvery == 0 {
					id = tr.newID()
					e.obs.doSpan[c].Store(id)
				}
				t0 := time.Now()
				var s0 int64
				if id != 0 {
					s0 = tr.now()
				}
				resp := e.f.Do(req)
				t1 := time.Now()
				if id != 0 {
					tr.record(id, 0, "fleet.do", s0, tr.now())
					e.obs.doSpan[c].Store(0)
				}
				rec := &recs[i]
				rec.atNS = int64(t0.Sub(start))
				rec.latNS = int64(t1.Sub(t0))
				rec.lagNS = int64(t0.Sub(last))
				last = t1
				if resp.Shed || resp.Canceled {
					rec.source = resp.Source
					continue
				}
				rec.done = true
				fillRec(rec, resp)
			}
			perClient[c] = recs
		}(c)
	}
	wg.Wait()
	rd.elapsed = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	rd.rt = runtimeDelta(rt0, readRuntime())
	e.obs.tr = nil
	for _, recs := range perClient {
		rd.recs = append(rd.recs, recs...)
	}
	e.finishRound(rd)
	return rd
}

// runOpen releases the schedule from one generator goroutine, each
// request at its due time whether or not the fleet keeps up.
func (e *fleetEnv) runOpen(tr *tracer) *round {
	rd := &round{traced: tr != nil}
	p := newOpenPairing(e.events, len(e.gen.Users()))
	p.tr = tr
	e.obs.open, e.obs.tr = p, tr
	lag := make([]int64, len(e.events))
	var submitEnd []int64
	if tr != nil {
		submitEnd = make([]int64, len(e.events))
	}
	runtime.GC()
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	p.start = start
	for i, ev := range e.events {
		now := time.Since(start)
		if wait := ev.At - now; wait > 0 {
			time.Sleep(wait)
			now = time.Since(start)
		}
		lag[i] = max(int64(now-ev.At), 0)
		req := fleet.Request{User: ev.User, Query: ev.Query, Click: ev.Click}
		if tr == nil || i%spanEvery != 0 {
			if !e.f.Submit(req) {
				p.shed[i].Store(true)
			}
			continue
		}
		id := tr.newID()
		s0 := tr.now()
		p.span[i], p.submitStart[i] = id, s0
		ok := e.f.Submit(req)
		submitEnd[i] = tr.now()
		tr.record(tr.newID(), id, "fleet.submit", s0, submitEnd[i])
		if !ok {
			p.shed[i].Store(true)
		}
	}
	e.f.Drain()
	rd.elapsed = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	rd.rt = runtimeDelta(rt0, readRuntime())
	e.obs.open, e.obs.tr = nil, nil
	epoch := int64(0)
	if tr != nil {
		epoch = int64(start.Sub(tr.epoch))
	}
	for i, ev := range e.events {
		rec := &p.recs[i]
		rec.atNS, rec.lagNS = int64(ev.At), lag[i]
		if p.shed[i].Load() {
			rec.source = fleet.SourceShed
			continue
		}
		// Open-loop latency counts from the due time, so a stalled
		// generator's delay shows on every request it held back.
		rec.latNS -= int64(ev.At)
		if id := p.span[i]; id != 0 && rec.done {
			// The worker may answer before Submit returns to the
			// generator; the request ends when both are done.
			end := max(epoch+int64(ev.At)+rec.latNS, submitEnd[i])
			tr.record(id, 0, "client.request", epoch+int64(ev.At), end)
		}
	}
	rd.recs = p.recs
	e.finishRound(rd)
	return rd
}

// finishRound checks the round's outputs and computes its digest.
func (e *fleetEnv) finishRound(rd *round) {
	rd.attempted = len(rd.recs)
	var windows [][]float64
	for i := range rd.recs {
		r := &rd.recs[i]
		if !r.done {
			continue
		}
		rd.completed++
		w := int(r.atNS / int64(latencyWindow))
		for len(windows) <= w {
			windows = append(windows, nil)
		}
		windows[w] = append(windows[w], float64(r.latNS)/1e3)
	}
	var short []float64
	for _, lat := range windows {
		if len(lat) < minWindowSamples {
			short = append(short, lat...)
			continue
		}
		rd.win50US = append(rd.win50US, quantile(lat, 0.50))
		rd.win99US = append(rd.win99US, quantile(lat, 0.99))
	}
	if len(rd.win50US) == 0 && len(short) > 0 {
		// Too few requests for windows: the round is one window.
		rd.win50US, rd.win99US = []float64{quantile(short, 0.50)}, []float64{quantile(short, 0.99)}
	}
	st := e.f.Stats()
	rd.failed = int(st.Shed + st.Errors + st.Canceled)
	sum := summarize(rd.recs)
	rd.problems = checkFleet(e, st, sum, rd.attempted)
	rd.digestText = fleetDigest(e, st, sum)
	rd.digest = hashText(rd.digestText)
}

// release drops what the benchmark itself holds — the round's request
// records and the workload's tapes or schedule — and measures the live
// heap with the fleet still reachable, so heap_mb is the program's.
func (e *fleetEnv) release(rd *round) {
	rd.recs, e.tapes, e.events = nil, nil, nil
	rd.heapMB = liveHeapMB()
	runtime.KeepAlive(e.f)
}

package main

import (
	"math"
	"sync/atomic"
	"time"

	"pocketcloudlets/internal/backend"
	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/energy"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/faults"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/fleet"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/loadgen"
	"pocketcloudlets/internal/modeltime"
	"pocketcloudlets/internal/placement"
	"pocketcloudlets/internal/pocketsearch"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// probeInput is a workload's own generated inputs, on which the traced
// run calls each layer's public functions directly. The fleet calls
// most of these layers internally, where the benchmark cannot time
// them from its own files.
type probeInput struct {
	gen     *workload.Generator
	eng     *engine.Engine
	content cachegen.Content
	// cfg is the workload's fleet configuration: cache options,
	// faults, replicas, hedging, backend and radio.
	cfg fleet.Config
	// reqs is a sample of the workload's requests, in order.
	reqs []fleet.Request
	// gap is the model time between two of the workload's requests
	// (the round's makespan over its request count): the miss-planning
	// probe dispatches at that density.
	gap  time.Duration
	seed int64
}

// plansPerProbe bounds the miss-planning probe: pricing a dispatch on a
// loaded backend simulates its background queue up to the dispatch
// time, so each plan is far costlier than a hit.
const plansPerProbe = 2000

// probeLayers times each layer on the workload's inputs and returns
// per-layer metrics by name.
func probeLayers(in probeInput, sampleUsers int) map[string]float64 {
	m := make(map[string]float64)
	u := in.eng.Universe()

	// Community preload: what every shard replica and every replayed
	// cache does at set-up.
	var pc *pocketsearch.Cache
	var preload []float64
	for i := 0; i < 3; i++ {
		dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
		c, err := pocketsearch.New(dev, in.eng, in.cfg.Options)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		if err := c.Preload(in.content); err != nil {
			panic(err)
		}
		preload = append(preload, float64(time.Since(t0)))
		pc = c
	}
	m["pocketsearch.preload_ns"] = median(preload)
	m["pocketsearch.preload_records"] = float64(len(in.content.Triplets))

	db := pc.DB()
	var replace time.Duration
	for f := 0; f < db.Files(); f++ {
		recs, err := db.RecordsOf(f)
		if err != nil {
			panic(err)
		}
		t0 := time.Now()
		if _, err := db.ReplaceFile(f, recs); err != nil {
			panic(err)
		}
		replace += time.Since(t0)
	}
	m["resultdb.replace_file_ns"] = perCall(replace, db.Files())

	// The read path, layer by layer, on the sample's queries.
	qhs := make([]uint64, len(in.reqs))
	for i, r := range in.reqs {
		qhs[i] = hash64.Sum(r.Query)
	}
	table := pc.Table()
	buf := make([]hashtable.SearchRef, 0, 8)
	var rhs []uint64
	t0 := time.Now()
	for _, qh := range qhs {
		buf = table.LookupInto(qh, buf[:0])
	}
	m["hashtable.lookup_ns"] = perCall(time.Since(t0), len(qhs))
	for _, qh := range qhs {
		for _, r := range table.LookupInto(qh, buf[:0]) {
			rhs = append(rhs, r.ResultHash)
		}
	}
	recs := make([][]byte, 0, len(rhs))
	t0 = time.Now()
	for _, rh := range rhs {
		rec, _, err := db.GetView(rh)
		if err != nil {
			panic(err)
		}
		recs = append(recs, rec)
	}
	m["resultdb.get_ns"] = perCall(time.Since(t0), len(rhs))
	t0 = time.Now()
	for _, rec := range recs {
		if _, err := engine.ParseRecord(rec); err != nil {
			panic(err)
		}
	}
	m["engine.parse_record_ns"] = perCall(time.Since(t0), len(recs))

	// Serve only the sample's community hits, so the probe cache stays
	// the preloaded replica instead of growing one user's personal
	// state out of every sampled user's misses.
	var hitNS time.Duration
	hits := 0
	for i, r := range in.reqs {
		if !pc.ContainsPair(qhs[i], hash64.Sum(r.Click)) {
			continue
		}
		t0 := time.Now()
		out, err := pc.Query(r.Query, r.Click)
		d := time.Since(t0)
		if err != nil {
			panic(err)
		}
		if out.Hit {
			hitNS += d
			hits++
		}
	}
	m["pocketsearch.query_hit_ns"] = perCall(hitNS, hits)

	t0 = time.Now()
	for _, r := range in.reqs {
		in.eng.Search(r.Query)
	}
	m["engine.search_ns"] = perCall(time.Since(t0), len(in.reqs))

	users := in.gen.Users()
	if sampleUsers > len(users) {
		sampleUsers = len(users)
	}
	var pairs []searchlog.PairID
	for _, up := range users[:sampleUsers] {
		for _, e := range in.gen.UserStream(up, month) {
			pairs = append(pairs, e.Pair)
		}
	}
	t0 = time.Now()
	for _, p := range pairs {
		_ = u.ResultURL(u.ResultOf(p))
	}
	m["engine.result_url_ns"] = perCall(time.Since(t0), len(pairs))

	t0 = time.Now()
	for _, up := range users[:sampleUsers] {
		loadgen.Tape(in.gen, up, month)
	}
	m["workload.tape_ns_per_user"] = perCall(time.Since(t0), sampleUsers)

	m["modeltime.schedule_ns"] = probeSchedule(in)
	plan, price := probePlans(in)
	m["faults.plan_hedged_ns"], m["backend.price_ns"] = plan, price

	t0 = time.Now()
	res, err := replay.Run(replay.Config{Gen: in.gen, Content: in.content, Mode: replay.Full, UsersPerClass: 1, Month: month})
	if err != nil {
		panic(err)
	}
	m["replay.user_ms"] = float64(time.Since(t0)) / 1e6 / float64(max(len(res.Users), 1))

	// The small per-request helpers, timed in bulk.
	pl, err := placement.NewModulo(8)
	if err != nil {
		panic(err)
	}
	t0 = time.Now()
	var sink int
	for _, r := range in.reqs {
		sink += pl.ShardOf(placement.UserKey(uint64(r.User)))
	}
	m["placement.shard_of_ns"] = perCall(time.Since(t0), len(in.reqs))
	link := in.cfg.Radio
	if link.Name == "" {
		link = radio.ThreeG()
	}
	t0 = time.Now()
	for i := range in.reqs {
		sink += int(radio.ExchangeCost(link, pocketsearch.QueryRequestBytes, pocketsearch.ResultsPageBytes, i%2 == 0).Total())
	}
	m["radio.exchange_cost_ns"] = perCall(time.Since(t0), len(in.reqs))
	dev := device.New(device.Config{}, link, flashsim.Params{})
	t0 = time.Now()
	for range in.reqs {
		dev.NetworkRequest(pocketsearch.QueryRequestBytes, pocketsearch.ResultsPageBytes)
	}
	m["device.network_request_ns"] = perCall(time.Since(t0), len(in.reqs))
	var ctr energy.Counter
	t0 = time.Now()
	for range in.reqs {
		ctr.Add(0.25)
	}
	m["energy.counter_add_ns"] = perCall(time.Since(t0), len(in.reqs))
	sinkInt.Store(int64(sink))
	return m
}

// sinkInt keeps bulk-timed results alive.
var sinkInt atomic.Int64

func perCall(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// probeSchedule times one second of per-user arrivals at 25k/s over
// the workload's population, the open loop's schedule draw, and
// returns nanoseconds per arrival.
func probeSchedule(in probeInput) float64 {
	byClass := make(map[workload.Class]float64)
	for _, spec := range in.gen.Classes() {
		byClass[spec.Class] = math.Sqrt(float64(spec.MinMonthly) * float64(spec.MaxMonthly))
	}
	users := in.gen.Users()
	weights := make([]float64, len(users))
	for i, up := range users {
		weights[i] = byClass[up.Class]
	}
	t0 := time.Now()
	arr, err := modeltime.Schedule(modeltime.Spec{
		Kind: modeltime.PerUser, QPS: 25000, Horizon: time.Second, Seed: in.seed, Max: 1 << 20, Weights: weights,
	})
	if err != nil {
		panic(err)
	}
	return perCall(time.Since(t0), len(arr))
}

// timingPricer wraps the backend model to time each admission price.
type timingPricer struct {
	inner *backend.Model
	ns    time.Duration
	n     int
}

// Price implements faults.Pricer.
func (p *timingPricer) Price(replica int, at time.Duration, uid, qh, seq uint64, attempt int) faults.Admission {
	t0 := time.Now()
	a := p.inner.Price(replica, at, uid, qh, seq, attempt)
	p.ns += time.Since(t0)
	p.n++
	return a
}

// probePlans plans misses with the workload's fault, hedge and backend
// configuration, at the workload's own request density, and
// returns nanoseconds per plan and per admission price. A workload
// without faults plans against the inert model and prices against an
// infinitely fast backend, which is what its fleet's miss path is.
func probePlans(in probeInput) (planNS, priceNS float64) {
	cfg := in.cfg
	replicas := max(cfg.Replicas, 1)
	var injs []*faults.Injector
	if cfg.Faults.Enabled {
		injs = faults.Replicas(faults.New(cfg.Faults), replicas)
	}
	bo := cfg.Backend
	if !bo.Enabled {
		bo = backend.Options{Enabled: true, ServiceRate: math.Inf(1)}
	}
	bo.Replicas, bo.CloneFactor = replicas, max(cfg.Hedge.CloneFactor, 1)
	pr := &timingPricer{inner: backend.NewModel(bo)}
	link := cfg.Radio
	if link.Name == "" {
		link = radio.ThreeG()
	}
	pol := cfg.Retry.WithDefaults()
	n := min(len(in.reqs), plansPerProbe)
	step := in.gap
	var total time.Duration
	for i, r := range in.reqs[:n] {
		now := time.Duration(i) * step
		t0 := time.Now()
		faults.PlanHedged(injs, pol, cfg.Hedge, link, pr, now, 0, uint64(r.User), hash64.Sum(r.Query), uint64(i))
		total += time.Since(t0)
	}
	// Price each sampled dispatch directly too: a plan that meets no
	// fault, or an inert fault model, never reaches the pricer.
	for i, r := range in.reqs[:n] {
		pr.Price(i%replicas, time.Duration(i)*step, uint64(r.User), hash64.Sum(r.Query), uint64(i), 1)
	}
	return perCall(total, n), perCall(pr.ns, pr.n)
}

// probeSubmit times Fleet.Submit on the workload's requests against a
// fleet that has finished its round, in chunks the worker queues hold.
func probeSubmit(f *fleet.Fleet, reqs []fleet.Request) float64 {
	const chunk = 512
	var total time.Duration
	for lo := 0; lo < len(reqs); lo += chunk {
		for _, r := range reqs[lo:min(lo+chunk, len(reqs))] {
			t0 := time.Now()
			f.Submit(r)
			total += time.Since(t0)
		}
		f.Drain()
	}
	return perCall(total, len(reqs))
}

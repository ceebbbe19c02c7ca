// Command cloudbench is the repository's benchmark: it runs one
// workload against the fleet simulator or the paper pipeline, checks
// the outputs, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run alternates untraced and traced
// timed phases; the metrics are the per-layer ones, and the span log
// is written under --spans when the run ends.
//
// Usage (from the repository root):
//
//	bash cloudbench/run.sh --workload month-replay --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pocketcloudlets/internal/experiments"
	"pocketcloudlets/internal/fleet"
)

func main() {
	name := flag.String("workload", "", "workload: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long the timed phases run, in seconds")
	trace := flag.Int("trace", 0, "1 runs traced phases and reports per-layer metrics; 0 reports end-to-end metrics")
	spans := flag.String("spans", filepath.Join(".bench_build", "cloudbench"), "directory the traced run writes its span log to")
	flag.Parse()
	os.Exit(run(*name, *seed, *seconds, *trace, *spans))
}

// run executes one benchmark run and returns the exit code.
func run(name string, seed int64, seconds, trace int, spans string) int {
	w, err := findWorkload(name)
	if err != nil || seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "cloudbench: bad arguments (workload %q, seconds %d, trace %d); workloads: %s\n",
			name, seconds, trace, workloadNames())
		return 2
	}
	sc := w.full
	sc.horizon = time.Duration(seconds) * time.Second
	res, err := runWorkload(w, sc, seed, runConfig{
		seconds:      time.Duration(seconds) * time.Second,
		minSetupTime: minSetupTime,
		traced:       trace == 1,
		spansDir:     spans,
	}, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintf(os.Stderr, "cloudbench: %v\n", err)
		return 1
	}
	fmt.Println(line)
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is what one run reports.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	// digest fingerprints the model outputs; spansPath is the span
	// log a traced run wrote.
	digest, spansPath string
}

// runConfig is how long and how one run measures.
type runConfig struct {
	// seconds is the least total time of the timed phases.
	seconds time.Duration
	// minSetupTime is the least total set-up time (see minSetups).
	minSetupTime time.Duration
	traced       bool
	spansDir     string
}

func (r *result) json() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, make(map[string]value)}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// endToEnd lists the end-to-end metrics in report order, with units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"cpu_us_per_req", "us"},
	{"heap_mb", "MB"},
}

// perLayer lists the per-layer metrics in report order, with units.
var perLayer = []struct{ name, unit string }{
	{"pocketsearch.query_hit_ns", "ns"},
	{"hashtable.lookup_ns", "ns"},
	{"resultdb.get_ns", "ns"},
	{"engine.parse_record_ns", "ns"},
	{"fleet.handoff_ns", "ns"},
	{"fleet.submit_ns", "ns"},
	{"fleet.wall_p50_ns", "ns"},
	{"fleet.wall_p99_ns", "ns"},
	{"loadgen.observe_ns", "ns"},
	{"loadgen.gen_lag_p99_ms", "ms"},
	{"faults.plan_hedged_ns", "ns"},
	{"faults.attempts_per_miss", "count"},
	{"faults.useful_attempt_share", "share"},
	{"backend.price_ns", "ns"},
	{"backend.utilization", "share"},
	{"backend.rejected_share", "share"},
	{"backend.abandoned_work_share", "share"},
	{"engine.search_ns", "ns"},
	{"engine.result_url_ns", "ns"},
	{"pocketsearch.preload_ns", "ns"},
	{"pocketsearch.preload_records", "count"},
	{"resultdb.replace_file_ns", "ns"},
	{"replay.user_ms", "ms"},
	{"workload.tape_ns_per_user", "ns"},
	{"modeltime.schedule_ns", "ns"},
	{"placement.shard_of_ns", "ns"},
	{"radio.exchange_cost_ns", "ns"},
	{"device.network_request_ns", "ns"},
	{"energy.counter_add_ns", "ns"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.alloc_bytes_per_req", "B"},
	{"runtime.allocs_per_req", "count"},
	{"runtime.gc_pause_p99_us", "us"},
	{"runtime.sched_latency_p99_us", "us"},
	{"client.self_share", "share"},
	{"fleet.self_share", "share"},
	{"loadgen.self_share", "share"},
	{"experiments.self_share", "share"},
	{"workload.setup_share", "share"},
	{"cachegen.setup_share", "share"},
	{"loadgen.setup_share", "share"},
	{"fleet.setup_share", "share"},
	{"trace.overhead_share", "share"},
}

// probeUsers is how many lab users the daily-updates traced run serves
// through a fleet, so the fleet and loadgen layers are measured on the
// lab's inputs too.
const probeUsers = 500

// sampleUsers is how many users the per-user probes (tapes, URLs) use.
const sampleUsers = 200

// runWorkload sets the workload up at least minSetups times and runs
// timed phases until they add up to rc.seconds. A traced run
// alternates untraced and traced phases, so it measures both.
func runWorkload(w workloadSpec, sc scale, seed int64, rc runConfig, out io.Writer) (*result, error) {
	seconds, traced := rc.seconds, rc.traced
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var (
		setups       []float64
		phases       = make(map[string]time.Duration)
		setupTotal   time.Duration
		rounds       []*round
		tracedRounds []*round
		timed        time.Duration
		extra        []*round // probe-fleet rounds of a traced daily-updates run
	)
	enough := func() bool {
		return timed >= seconds && len(rounds) > 0 && (!traced || len(tracedRounds) > 0)
	}
	for len(setups) < minSetups || setupTotal < rc.minSetupTime || !enough() {
		runRound := !enough()
		var rtr *tracer
		if traced && len(rounds) > len(tracedRounds) {
			rtr = tr
		}
		// Collect before each set-up and each timed phase, so neither
		// pays for the garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		var rd *round
		switch w.kind {
		case "closed", "open":
			env, err := setupFleet(w, sc, seed, tr)
			if err != nil {
				return nil, err
			}
			d := time.Since(t0)
			setups = append(setups, d.Seconds())
			setupTotal += d
			for k, v := range env.phases {
				phases[k] += v
			}
			if runRound {
				if w.kind == "closed" {
					rd = env.runClosed(rtr)
				} else {
					rd = env.runOpen(rtr)
				}
				if rtr != nil && len(tracedRounds) == 0 {
					rd.layer = fleetLayer(env, rd, env.probeInput())
				}
				env.release(rd)
			}
			env.close()
		case "daily":
			d := setupDaily(w, sc, seed, tr)
			dt := time.Since(t0)
			setups = append(setups, dt.Seconds())
			setupTotal += dt
			phases["workload"] += dt
			if runRound {
				rd = d.run(rtr)
				if rtr != nil && len(tracedRounds) == 0 {
					pr, err := d.probeFleet(rtr)
					if err != nil {
						return nil, err
					}
					extra = append(extra, pr)
					rd.layer = pr.layer
				}
			}
		}
		if rd == nil {
			continue
		}
		timed += rd.elapsed
		if rd.traced {
			tracedRounds = append(tracedRounds, rd)
		} else {
			rounds = append(rounds, rd)
		}
		fmt.Fprintf(out, "round %d (%s): %d requests in %.3fs, %d failed, digest %s\n",
			len(rounds)+len(tracedRounds), map[bool]string{false: "untraced", true: "traced"}[rd.traced],
			rd.completed, rd.elapsed.Seconds(), rd.failed, rd.digest)
		fmt.Fprintf(out, "  window p50 us: %s\n  window p99 us: %s\n", floats(rd.win50US), floats(rd.win99US))
	}

	res := &result{correct: true}
	all := append(append(append([]*round(nil), rounds...), tracedRounds...), extra...)
	var want string
	for _, rd := range all {
		for _, p := range rd.problems {
			res.correct = false
			fmt.Fprintf(out, "check failed: %s\n", p)
		}
	}
	for _, rd := range append(append([]*round(nil), rounds...), tracedRounds...) {
		res.attempted += rd.attempted
		res.failed += rd.failed
		if rd.failed > 0 {
			continue // shedding legitimately changes the model outputs
		}
		if want == "" {
			want = rd.digest
			res.digest = want
			fmt.Fprintf(out, "digest %s: %s\n", rd.digest, rd.digestText)
		} else if rd.digest != want {
			res.correct = false
			fmt.Fprintf(out, "check failed: digest %s differs from %s: %s\n", rd.digest, want, rd.digestText)
		}
	}
	fmt.Fprintf(out, "setup_s samples: %s\n", floats(setups))

	e2e := endToEndMetrics(setups, rounds)
	for _, m := range e2e {
		fmt.Fprintf(out, "%-30s %14.4f %s\n", m.name, m.value, m.unit)
	}
	if !traced {
		res.metrics = e2e
		return res, nil
	}

	layer := tracedRounds[0].layer
	for k, v := range runtimeLayer(rounds) {
		layer[k] = v
	}
	spans := tr.snapshot()
	for k, v := range selfShares(spans) {
		layer[k] = v
	}
	for _, l := range []string{"workload", "cachegen", "loadgen", "fleet"} {
		layer[l+".setup_share"] = float64(phases[l]) / float64(setupTotal)
	}
	untracedCPU, tracedCPU := cpuPerReq(rounds), cpuPerReq(tracedRounds)
	layer["trace.overhead_share"] = (tracedCPU - untracedCPU) / untracedCPU
	fmt.Fprintf(out, "tracing overhead: %.2f us/req traced vs %.2f untraced (%d spans)\n", tracedCPU, untracedCPU, len(spans))
	for _, m := range perLayer {
		v := layer[m.name]
		res.metrics = append(res.metrics, metric{m.name, m.unit, v})
		fmt.Fprintf(out, "%-30s %14.4f %s\n", m.name, v, m.unit)
	}
	res.spansPath = filepath.Join(rc.spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, seed))
	if err := writeSpans(res.spansPath, spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "span log: %s\n", res.spansPath)
	return res, nil
}

func floats(vs []float64) string {
	var parts []string
	for _, v := range vs {
		parts = append(parts, fmt.Sprintf("%.4f", v))
	}
	return strings.Join(parts, " ")
}

// endToEndMetrics aggregates the untraced rounds: each metric is the
// median of its per-round (for latency, per-window) values.
func endToEndMetrics(setups []float64, rounds []*round) []metric {
	var rps, cpu, heap, p50, p99 []float64
	for _, rd := range rounds {
		rps = append(rps, float64(rd.completed)/rd.elapsed.Seconds())
		cpu = append(cpu, cpuPerReq([]*round{rd}))
		heap = append(heap, rd.heapMB)
		p50 = append(p50, rd.win50US...)
		p99 = append(p99, rd.win99US...)
	}
	vals := map[string]float64{
		"setup_s":        median(setups),
		"rps":            median(rps),
		"latency_p50_us": median(p50),
		"latency_p99_us": median(p99),
		"cpu_us_per_req": median(cpu),
		"heap_mb":        median(heap),
	}
	var out []metric
	for _, m := range endToEnd {
		out = append(out, metric{m.name, m.unit, vals[m.name]})
	}
	return out
}

// cpuPerReq is process CPU per completed request, in microseconds.
func cpuPerReq(rounds []*round) float64 {
	var cpu time.Duration
	var n int
	for _, rd := range rounds {
		cpu += rd.cpu
		n += rd.completed
	}
	return float64(cpu) / 1e3 / float64(max(n, 1))
}

// runtimeLayer reads the Go runtime as a layer, over untraced rounds.
func runtimeLayer(rounds []*round) map[string]float64 {
	var gc, pause, sched []float64
	var bytes, objs uint64
	var n int
	for _, rd := range rounds {
		gc = append(gc, rd.rt.gcCPUShare)
		pause = append(pause, float64(rd.rt.pauseP99)/1e3)
		sched = append(sched, float64(rd.rt.schedP99)/1e3)
		bytes += rd.rt.allocBytes
		objs += rd.rt.allocObjs
		n += rd.completed
	}
	n = max(n, 1)
	return map[string]float64{
		"runtime.gc_cpu_share":         median(gc),
		"runtime.alloc_bytes_per_req":  float64(bytes) / float64(n),
		"runtime.allocs_per_req":       float64(objs) / float64(n),
		"runtime.gc_pause_p99_us":      median(pause),
		"runtime.sched_latency_p99_us": median(sched),
	}
}

// selfShares splits the traced timed phases' span time by layer. Set-up
// spans are left out: the set-up shares come from the set-up timers.
func selfShares(spans []span) map[string]float64 {
	setupIDs := make(map[int64]bool)
	for _, s := range spans {
		if s.name == "client.setup" {
			setupIDs[s.id] = true
		}
	}
	var timed []span
	for _, s := range spans {
		if !setupIDs[s.id] && !setupIDs[s.parent] {
			timed = append(timed, s)
		}
	}
	self := layerSelf(timed)
	var total int64
	for _, v := range self {
		total += v
	}
	out := make(map[string]float64)
	for _, l := range []string{"client", "fleet", "loadgen", "experiments"} {
		if total > 0 {
			out[l+".self_share"] = float64(self[l]) / float64(total)
		}
	}
	return out
}

// fleetLayer computes the per-layer metrics of a traced fleet round.
func fleetLayer(e *fleetEnv, rd *round, in probeInput) map[string]float64 {
	m := probeLayers(in, sampleUsers)
	var hitNS, wall, lag []float64
	var cloudPath, answered, attempts int64
	for i := range rd.recs {
		r := &rd.recs[i]
		lag = append(lag, float64(r.lagNS))
		if !r.done {
			continue
		}
		wall = append(wall, float64(r.wallNS))
		if r.hit {
			if e.w.kind == "closed" {
				hitNS = append(hitNS, float64(r.latNS))
			} else {
				hitNS = append(hitNS, float64(r.wallNS))
			}
		}
		switch r.source {
		case fleet.SourceCloud, fleet.SourceDegraded, fleet.SourceUnavailable:
			cloudPath++
			attempts += int64(max(r.attempts, 1))
			if r.source == fleet.SourceCloud {
				answered++
			}
		}
	}
	st := e.f.Stats()
	attempts += st.WastedAttempts
	var mean float64
	for _, v := range hitNS {
		mean += v
	}
	if len(hitNS) > 0 {
		mean /= float64(len(hitNS))
	}
	m["fleet.handoff_ns"] = mean - m["pocketsearch.query_hit_ns"]
	m["fleet.wall_p50_ns"] = quantile(wall, 0.50)
	m["fleet.wall_p99_ns"] = quantile(wall, 0.99)
	m["loadgen.gen_lag_p99_ms"] = quantile(lag, 0.99) / 1e6
	m["loadgen.observe_ns"] = float64(e.obs.observeNS.Load()) / float64(max(e.obs.observeN.Load(), 1))
	if cloudPath > 0 {
		m["faults.attempts_per_miss"] = float64(attempts) / float64(cloudPath)
		m["faults.useful_attempt_share"] = float64(answered) / float64(attempts)
	}
	var util, arrivals, rejected, busy, abandoned float64
	for _, b := range st.Backend {
		util += b.Utilization() / float64(len(st.Backend))
		arrivals += float64(b.Arrivals)
		rejected += float64(b.Rejected)
		busy += float64(b.BusyNs)
		abandoned += float64(b.AbandonedWorkNs)
	}
	m["backend.utilization"] = util
	if arrivals > 0 {
		m["backend.rejected_share"] = rejected / arrivals
	}
	if busy > 0 {
		m["backend.abandoned_work_share"] = abandoned / busy
	}
	// Submit is timed last: its requests change the fleet's state.
	m["fleet.submit_ns"] = probeSubmit(e.f, in.reqs)
	return m
}

// probeInput samples the environment's own requests for the probes.
func (e *fleetEnv) probeInput() probeInput {
	n := e.sc.probeRequests
	var reqs []fleet.Request
	if len(e.tapes) > 0 {
		reqs = e.tapes[0][:min(n, len(e.tapes[0]))]
	} else {
		for _, ev := range e.events[:min(n, len(e.events))] {
			reqs = append(reqs, fleet.Request{User: ev.User, Query: ev.Query, Click: ev.Click})
		}
	}
	gap := e.f.ModelMakespan() / time.Duration(max(e.f.Stats().Served, 1))
	return probeInput{gen: e.gen, eng: e.eng, content: e.content, cfg: e.cfg, reqs: reqs, gap: gap, seed: e.seed}
}

// probeFleet serves the first lab users' month streams through a fleet
// built on the lab's inputs, so a traced daily-updates run measures the
// serving layers on this workload's inputs too.
func (d *dailyEnv) probeFleet(tr *tracer) (*round, error) {
	env := &fleetEnv{
		w:    workloadSpec{name: d.w.name + " probe fleet", kind: "closed"},
		sc:   d.sc,
		seed: d.seed,
		gen:  d.lab.Generator(),
		eng:  d.lab.Engine(),
		// The lab's evaluation cache, as the experiment's replays use.
		content: d.lab.Content(month-1, experiments.EvalShare),
	}
	users := d.lab.Generator().Users()
	env.setTapes(users[:min(probeUsers, len(users))])
	if err := env.newFleet(); err != nil {
		return nil, err
	}
	defer env.close()
	rd := env.runClosed(tr)
	rd.layer = fleetLayer(env, rd, env.probeInput())
	return rd, nil
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"pocketcloudlets/internal/experiments"
	"pocketcloudlets/internal/workload"
)

// dailyEnv is one set-up daily-updates workload: a lab whose universe
// and population are built. Month logs, community content and the
// replays are the experiment's own work and run in the timed phase.
type dailyEnv struct {
	w    workloadSpec
	sc   scale
	seed int64
	lab  *experiments.Lab
}

func setupDaily(w workloadSpec, sc scale, seed int64, tr *tracer) *dailyEnv {
	d := &dailyEnv{w: w, sc: sc, seed: seed}
	tr.run(0, "client.setup", func(id int64) {
		tr.run(id, "workload.population", func(int64) {
			d.lab = experiments.NewLab(seed, sc.labUsers, sc.perClass)
			d.lab.Generator()
		})
	})
	return d
}

// replayedQueries is how many queries the experiment replays: the
// static and the daily-updated replay each serve every sampled user's
// month stream.
func (d *dailyEnv) replayedQueries() (queries, users int) {
	g := d.lab.Generator()
	for _, c := range workload.Classes() {
		us := g.UsersOfClass(c)
		if len(us) > d.sc.perClass {
			us = us[:d.sc.perClass]
		}
		for _, up := range us {
			queries += len(g.UserStream(up, month))
		}
		users += len(us)
	}
	return 2 * queries, 2 * users
}

// run times one DailyUpdates experiment.
func (d *dailyEnv) run(tr *tracer) *round {
	rd := &round{traced: tr != nil}
	runtime.GC()
	rt0, cpu0 := readRuntime(), cpuTime()
	start := time.Now()
	var res experiments.DailyUpdatesResult
	tr.run(0, "experiments.daily_updates", func(int64) { res = experiments.DailyUpdates(d.lab) })
	rd.elapsed = time.Since(start)
	rd.cpu = cpuTime() - cpu0
	rd.rt = runtimeDelta(rt0, readRuntime())
	rd.heapMB = liveHeapMB()
	runtime.KeepAlive(d.lab)
	// The unit of work is one simulated user-day: the experiment's cost
	// follows the replayed users (each preloads the community content
	// and applies thirty daily deltas), not their query counts.
	queries, users := d.replayedQueries()
	rd.attempted, rd.completed = users*30, users*30
	rd.win50US = []float64{float64(rd.elapsed) / 1e3}
	rd.win99US = rd.win50US
	if !(res.StaticAvg > 0 && res.StaticAvg < 1 && res.DailyAvg > 0 && res.DailyAvg < 1) {
		rd.problems = append(rd.problems, fmt.Sprintf("hit rates outside (0, 1): static %g daily %g", res.StaticAvg, res.DailyAvg))
	}
	if res.ChangedPairsPerDay <= 0 {
		rd.problems = append(rd.problems, fmt.Sprintf("no daily popular-set churn: %g pairs/day", res.ChangedPairsPerDay))
	}
	rd.digestText = fmt.Sprintf("static_avg=%s daily_avg=%s changed_pairs_per_day=%s replayed_queries=%d",
		ff(res.StaticAvg), ff(res.DailyAvg), ff(res.ChangedPairsPerDay), queries)
	rd.digest = hashText(rd.digestText)
	return rd
}

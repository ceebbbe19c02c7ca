package main

import (
	"fmt"
	"time"
)

// scale sizes a workload. The benchmark runs the full scale; the
// tests run the same code paths at a tiny one.
type scale struct {
	// users is the simulated population.
	users int
	// communityUsers builds the community content from only the first
	// N users' logs; 0 uses every user.
	communityUsers int
	// qps is the open loop's arrival rate and horizon its schedule
	// length (the run's --seconds).
	qps     float64
	horizon time.Duration
	// labUsers and perClass size the daily-updates lab.
	labUsers, perClass int
	// probeRequests is how many of the workload's own requests each
	// traced per-layer probe runs on.
	probeRequests int
}

// workloadSpec is one set of inputs the benchmark runs.
type workloadSpec struct {
	name string
	// why records what the workload stresses and which layers it
	// leaves idle.
	why string
	// kind is "closed", "open" or "daily".
	kind string
	// storm turns on the miss pipeline (closed loop only).
	storm bool
	full  scale
}

// month is the replayed month; community content comes from the month
// before it.
const month = 1

// communityShare is the cumulative-volume share the community replica
// covers (the paper's Fig 17 setting).
const communityShare = 0.55

// clients is the closed loops' concurrency: two client goroutines in
// one process.
const clients = 2

// minSetups and minSetupTime bound how often a run sets up: at least
// minSetups times and for at least minSetupTime in all, so setup_s is
// a median of several samples even when one set-up is short.
const (
	minSetups    = 3
	minSetupTime = 2 * time.Second
)

var workloads = []workloadSpec{
	{
		name: "month-replay",
		why: "Fig 17 at fleet scale: 4000 users replay month 1 from a cold personal tier against a 0.55 community replica; " +
			"~70% hits, so the pocketsearch->hashtable->resultdb->engine.ParseRecord read path dominates and the miss path is analytic",
		kind: "closed",
		full: scale{users: 4000, probeRequests: 20000},
	},
	{
		name: "miss-storm",
		why: "the same tapes plus loss 0.2, 6s/30s outages, 3 replicas hedged 2 ways and PS backends with cancel-on-win; " +
			"the faults/backend miss pipeline dominates while the hit path is unchanged",
		kind:  "closed",
		storm: true,
		full:  scale{users: 4000, probeRequests: 20000},
	},
	{
		name: "open-100k",
		why: "open loop, per-user arrivals at 25k/s over 100k users (README 100k recipe): working set far beyond the CPU caches, " +
			"64% misses, first-touch arena materialization and a GC-sized live heap",
		kind: "open",
		full: scale{users: 100000, communityUsers: 100, qps: 25000, probeRequests: 20000},
	},
	{
		name: "daily-updates",
		why: "the paper pipeline: experiments.DailyUpdates on an 8000-user lab, 5 replayed users per class; " +
			"pocketsearch is write-dominated (Preload, resultdb.ReplaceFile) and no fleet runs",
		kind: "daily",
		full: scale{labUsers: 8000, perClass: 5, probeRequests: 20000},
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}

package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"pocketcloudlets/internal/fleet"
)

// summary aggregates a round's request records in submission order,
// so its float sums are the same on every run.
type summary struct {
	bySource [fleet.NumSources]int64
	hits     int64
	// hitMismatch counts responses whose Outcome.Hit disagrees with the
	// tier that served them.
	hitMismatch int64
	// attempts sums Response.Attempts over cloud-path serves.
	attempts        int64
	energyJ, radioJ float64
	modelP50        int64
	modelP99        int64
}

func summarize(recs []reqRec) summary {
	var s summary
	model := make([]int64, 0, len(recs))
	for i := range recs {
		r := &recs[i]
		s.bySource[r.source]++
		if !r.done {
			continue
		}
		model = append(model, r.modelNS)
		s.energyJ += r.energyJ
		s.radioJ += r.radioJ
		s.attempts += int64(r.attempts)
		local := r.source == fleet.SourcePersonal || r.source == fleet.SourceCommunity
		if r.hit {
			s.hits++
		}
		if r.hit != local {
			s.hitMismatch++
		}
	}
	s.modelP50 = rankNS(model, 0.50)
	s.modelP99 = rankNS(model, 0.99)
	return s
}

// checkFleet asserts the accounting invariants cmd/loadtest -check
// asserts on a load report, here on the fleet's own counters after one
// round, plus cross-checks between the fleet's counters and what the
// benchmark saw come back.
func checkFleet(e *fleetEnv, st fleet.Stats, sum summary, attempted int) []string {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	faultsOn, hedgeOn, backendOn := e.cfg.Faults.Enabled, e.cfg.Hedge.Active() && e.cfg.Replicas >= 2, e.cfg.Backend.Enabled

	if st.Errors != 0 {
		bad("errors: %d", st.Errors)
	}
	if int64(attempted) != st.Served+st.Shed+st.Canceled {
		bad("attempted %d != served %d + shed %d + canceled %d", attempted, st.Served, st.Shed, st.Canceled)
	}
	tiers := st.PersonalHits + st.CommunityHits + st.CloudMisses + st.Degraded + st.Unavailable
	if tiers+st.Errors != st.Served {
		bad("tier counts %d + errors %d != served %d", tiers, st.Errors, st.Served)
	}
	for _, c := range []struct {
		src   fleet.Source
		fleet int64
	}{
		{fleet.SourcePersonal, st.PersonalHits}, {fleet.SourceCommunity, st.CommunityHits},
		{fleet.SourceCloud, st.CloudMisses}, {fleet.SourceDegraded, st.Degraded},
		{fleet.SourceUnavailable, st.Unavailable}, {fleet.SourceShed, st.Shed},
	} {
		if sum.bySource[c.src] != c.fleet {
			bad("%s: the benchmark saw %d responses, the fleet counted %d", c.src, sum.bySource[c.src], c.fleet)
		}
	}
	if sum.hitMismatch != 0 {
		bad("%d responses whose Outcome.Hit disagrees with their tier", sum.hitMismatch)
	}
	if !faultsOn && st.Degraded+st.Unavailable+st.Retries+st.Exhausted+st.BreakerOpens != 0 {
		bad("fault counters nonzero with faults off: degraded %d unavailable %d retries %d exhausted %d breaker %d",
			st.Degraded, st.Unavailable, st.Retries, st.Exhausted, st.BreakerOpens)
	}
	if !hedgeOn && st.ClonesLaunched+st.PrimaryWins+st.CloneWins+st.WastedAttempts != 0 {
		bad("hedge counters nonzero with hedging off: clones %d primary wins %d clone wins %d wasted %d",
			st.ClonesLaunched, st.PrimaryWins, st.CloneWins, st.WastedAttempts)
	}
	if hedgeOn {
		if st.Canceled == 0 && st.PrimaryWins+st.CloneWins != st.CloudMisses {
			bad("primary wins %d + clone wins %d != cloud misses %d", st.PrimaryWins, st.CloneWins, st.CloudMisses)
		}
		if st.CloneWins > st.ClonesLaunched {
			bad("clone wins %d exceed clones launched %d", st.CloneWins, st.ClonesLaunched)
		}
	}
	if len(st.ReplicaBreakerOpens) > 0 {
		var n int64
		for _, o := range st.ReplicaBreakerOpens {
			n += o
		}
		if n != st.BreakerOpens {
			bad("replica breaker opens sum to %d, fleet says %d", n, st.BreakerOpens)
		}
	}
	if backendOn != (len(st.Backend) > 0) {
		bad("backend model on=%v but %d replica rows", backendOn, len(st.Backend))
	}
	for i, b := range st.Backend {
		if b.Arrivals != b.Served+b.Rejected+b.Abandoned {
			bad("backend replica %d: arrivals %d != served %d + rejected %d + abandoned %d",
				i, b.Arrivals, b.Served, b.Rejected, b.Abandoned)
		}
		if b.BusyNs < 0 || b.WaitSumNs < 0 || b.ReclaimedNs < 0 || b.Utilization() < 0 {
			bad("backend replica %d has negative accounting: %+v", i, b)
		}
		if f := b.AbandonedWorkFraction(); f < 0 || f > 1 {
			bad("backend replica %d abandoned-work fraction %g outside [0, 1]", i, f)
		}
	}
	var shardServed, shardShed int64
	for _, sl := range e.f.ShardLoads() {
		shardServed += sl.Served
		shardShed += sl.Shed
	}
	if rl := e.f.RetiredLoad(); shardServed+rl.Served != st.Served || shardShed+rl.Shed != st.Shed {
		bad("shard loads sum to %d served / %d shed, fleet says %d / %d", shardServed+rl.Served, shardShed+rl.Shed, st.Served, st.Shed)
	}

	es := e.f.EnergyStats()
	for _, n := range []struct {
		name string
		v    float64
	}{
		{"device_base_j", es.DeviceBaseJ}, {"radio_j", es.RadioJ},
		{"shard_idle_j", es.ShardIdleJ}, {"shard_active_j", es.ShardActiveJ},
	} {
		if n.v < 0 || math.IsNaN(n.v) {
			bad("energy.%s is %g", n.name, n.v)
		}
	}
	// The ledger accumulates integer nanojoules; the responses carry
	// float joules. Both must book the same device energy.
	if !near(es.DeviceBaseJ+es.RadioJ, sum.energyJ) {
		bad("energy: ledger device joules %g disagree with the responses' %g", es.DeviceBaseJ+es.RadioJ, sum.energyJ)
	}
	if !near(es.RadioJ, sum.radioJ) {
		bad("energy: ledger radio joules %g disagree with the responses' %g", es.RadioJ, sum.radioJ)
	}
	if !near(es.TotalJ(), es.DeviceBaseJ+es.RadioJ+es.ShardJ()) {
		bad("energy: total %g != device %g + shard %g", es.TotalJ(), es.DeviceBaseJ+es.RadioJ, es.ShardJ())
	}
	return problems
}

// near reports whether two joule totals agree within the ledger's
// nanojoule rounding.
func near(a, b float64) bool {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1)
	return math.Abs(a-b) <= 1e-6*scale
}

// fleetDigest renders the round's model outputs: a pure function of the
// workload and its seed, so it must read the same on every run. It
// leaves out wall-clock figures, breaker openings (wall-clock pacing
// state) and float sums whose last digit depends on summation order.
func fleetDigest(e *fleetEnv, st fleet.Stats, sum summary) string {
	var b strings.Builder
	kv := func(k string, v any) { fmt.Fprintf(&b, "%s=%v ", k, v) }
	kv("served", st.Served)
	kv("shed", st.Shed)
	kv("errors", st.Errors)
	kv("canceled", st.Canceled)
	kv("personal", st.PersonalHits)
	kv("community", st.CommunityHits)
	kv("cloud", st.CloudMisses)
	kv("degraded", st.Degraded)
	kv("unavailable", st.Unavailable)
	kv("retries", st.Retries)
	kv("exhausted", st.Exhausted)
	kv("clones", st.ClonesLaunched)
	kv("primary_wins", st.PrimaryWins)
	kv("clone_wins", st.CloneWins)
	kv("wasted", st.WastedAttempts)
	kv("attempts", sum.attempts)
	kv("residents", st.Users)
	kv("personal_bytes", st.PersonalBytes)
	kv("model_p50_ns", sum.modelP50)
	kv("model_p99_ns", sum.modelP99)
	kv("makespan_ns", int64(e.f.ModelMakespan()))
	for i, r := range st.Backend {
		kv(fmt.Sprintf("backend%d", i), fmt.Sprintf("%d/%d/%d/%d/%d/%d", r.Arrivals, r.Served, r.Rejected, r.Abandoned, r.BusyNs, r.WaitSumNs))
	}
	es := e.f.EnergyStats()
	kv("ledger_radio_j", ff(es.RadioJ))
	kv("ledger_device_base_j", ff(es.DeviceBaseJ))
	kv("ledger_shard_active_j", ff(es.ShardActiveJ))
	kv("ledger_shard_idle_j", ff(es.ShardIdleJ))
	return strings.TrimSpace(b.String())
}

// ff formats a float with every digit.
func ff(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// hashText is the digest's short fingerprint.
func hashText(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())
}

package faults

import (
	"testing"
	"time"

	"pocketcloudlets/internal/radio"
)

// The planner benchmarks sweep the miss sequence number and the model
// clock (1.7 s per miss, so the 30 s outage cycle is sampled at many
// phases) the way a user's successive misses would.

// benchLossy is the fault profile of the repository's fault smokes:
// 20% loss plus a 6 s outage every 30 s.
var benchLossy = Options{Enabled: true, Seed: 3, LossProb: 0.2, OutageEvery: 30 * time.Second, OutageFor: 6 * time.Second}

var planSink Plan

// BenchmarkPlanMiss prices one miss's retry ladder: with no injector
// (what every fault-free user's miss pays), with an enabled injector
// that has no failure source, and under loss plus a periodic outage.
func BenchmarkPlanMiss(b *testing.B) {
	pol := RetryPolicy{MaxAttempts: 3}.WithDefaults()
	link := radio.ThreeG()
	for _, bc := range []struct {
		name string
		inj  *Injector
	}{
		{"nil", nil},
		{"inert", New(Options{Enabled: true})},
		{"loss0.2-outage6s/30s", New(benchLossy)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				now := time.Duration(i) * 1700 * time.Millisecond
				planSink = PlanMiss(bc.inj, pol, link, nil, 0, now, i%2 == 0, 7, 0x9e3779b97f4a7c15, uint64(i))
			}
		})
	}
}

var hedgedSink HedgedPlan

// BenchmarkPlanHedged plans one miss hedged across three replicas with
// clone factor 2, under the same loss-plus-outage profile.
func BenchmarkPlanHedged(b *testing.B) {
	pol := RetryPolicy{MaxAttempts: 3}.WithDefaults()
	hp := HedgePolicy{CloneFactor: 2, Delay: 30 * time.Millisecond}.WithDefaults()
	link := radio.ThreeG()
	injs := Replicas(New(benchLossy), 3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := time.Duration(i) * 1700 * time.Millisecond
		hedgedSink = PlanHedged(injs, pol, hp, link, nil, now, 0, 7, 0x9e3779b97f4a7c15, uint64(i))
	}
}

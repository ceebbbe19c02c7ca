package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics. It sorts samples in place.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return samples[lo] + (samples[hi]-samples[lo])*frac
}

// rankNS returns the nearest-rank q-quantile of integer nanosecond
// samples, so model-time percentiles stay exact integers. It sorts
// samples in place.
func rankNS(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	k := int(math.Ceil(q*float64(len(samples)))) - 1
	if k < 0 {
		k = 0
	}
	return samples[k]
}

// median of a small set of values (copied, not sorted in place).
func median(values []float64) float64 {
	return quantile(append([]float64(nil), values...), 0.5)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB forces a collection and returns the live heap in MB. The
// caller keeps the measured structures reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// The runtime/metrics this benchmark reads. Pause and scheduling
// latencies are histograms; the rest are cumulative counters.
const (
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU   = "/cpu/classes/total:cpu-seconds"
	mAllocBytes = "/gc/heap/allocs:bytes"
	mAllocObjs  = "/gc/heap/allocs:objects"
	mGCPauses   = "/sched/pauses/total/gc:seconds"
	mSchedLat   = "/sched/latencies:seconds"
)

// rtSnapshot is one reading of the runtime metrics above.
type rtSnapshot struct {
	gcCPU, totalCPU       float64
	allocBytes, allocObjs uint64
	pauses, sched         *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	samples := []metrics.Sample{
		{Name: mGCCPU}, {Name: mTotalCPU}, {Name: mAllocBytes},
		{Name: mAllocObjs}, {Name: mGCPauses}, {Name: mSchedLat},
	}
	metrics.Read(samples)
	var s rtSnapshot
	for _, m := range samples {
		switch m.Value.Kind() {
		case metrics.KindFloat64:
			if m.Name == mGCCPU {
				s.gcCPU = m.Value.Float64()
			} else {
				s.totalCPU = m.Value.Float64()
			}
		case metrics.KindUint64:
			if m.Name == mAllocBytes {
				s.allocBytes = m.Value.Uint64()
			} else {
				s.allocObjs = m.Value.Uint64()
			}
		case metrics.KindFloat64Histogram:
			if m.Name == mGCPauses {
				s.pauses = m.Value.Float64Histogram()
			} else {
				s.sched = m.Value.Float64Histogram()
			}
		}
	}
	return s
}

// rtDelta is the runtime's activity between two snapshots.
type rtDelta struct {
	gcCPUShare            float64
	allocBytes, allocObjs uint64
	pauseP99, schedP99    time.Duration
}

func runtimeDelta(a, b rtSnapshot) rtDelta {
	d := rtDelta{
		allocBytes: b.allocBytes - a.allocBytes,
		allocObjs:  b.allocObjs - a.allocObjs,
		pauseP99:   histDeltaQuantile(a.pauses, b.pauses, 0.99),
		schedP99:   histDeltaQuantile(a.sched, b.sched, 0.99),
	}
	if total := b.totalCPU - a.totalCPU; total > 0 {
		d.gcCPUShare = (b.gcCPU - a.gcCPU) / total
	}
	return d
}

// histDeltaQuantile is the q-quantile of the observations a runtime
// histogram gained between two readings, interpolated linearly inside
// the bucket it falls in (the buckets are coarse, so a bucket bound
// alone would read the same on every run).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) time.Duration {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	counts := make([]uint64, len(b.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := b.Buckets[i], b.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			v := lo + (hi-lo)*(target-cum)/float64(c)
			return time.Duration(v * 1e9)
		}
		cum += float64(c)
	}
	return 0
}

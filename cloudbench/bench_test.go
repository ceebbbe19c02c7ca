package main

import (
	"bufio"
	"io"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"pocketcloudlets/internal/fleet"
)

// tiny runs every workload's code paths at a size a test can afford.
func tiny(t *testing.T, name string) (workloadSpec, scale) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch w.kind {
	case "closed":
		return w, scale{users: 60, probeRequests: 200}
	case "open":
		return w, scale{users: 400, communityUsers: 50, qps: 2000, horizon: 300 * time.Millisecond, probeRequests: 200}
	default:
		return w, scale{labUsers: 300, perClass: 1, probeRequests: 200}
	}
}

func runTiny(t *testing.T, name string, seed int64, traced bool) *result {
	t.Helper()
	w, sc := tiny(t, name)
	res, err := runWorkload(w, sc, seed, runConfig{
		seconds:  time.Millisecond,
		traced:   traced,
		spansDir: t.TempDir(),
	}, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestDigestRepeats runs each workload twice at one seed: the model
// outputs must agree digit for digit, and the output checks must pass.
func TestDigestRepeats(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runTiny(t, w.name, 7, false), runTiny(t, w.name, 7, false)
			if !a.correct || !b.correct {
				t.Fatalf("output check failed: %v / %v", a.correct, b.correct)
			}
			if a.digest == "" || a.digest != b.digest {
				t.Fatalf("digest %q then %q", a.digest, b.digest)
			}
			if a.attempted < 1 || a.failed != 0 {
				t.Fatalf("attempted %d failed %d", a.attempted, a.failed)
			}
			if c := runTiny(t, w.name, 8, false); c.digest == a.digest {
				t.Fatalf("seeds 7 and 8 gave the same digest %s", c.digest)
			}
		})
	}
}

// TestMetricsComplete checks that a run reports every metric of its
// mode, each once, and never a zero end-to-end figure.
func TestMetricsComplete(t *testing.T) {
	res := runTiny(t, "month-replay", 3, false)
	if len(res.metrics) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(res.metrics), len(endToEnd))
	}
	for i, m := range res.metrics {
		if m.name != endToEnd[i].name || m.unit != endToEnd[i].unit || !(m.value > 0) {
			t.Errorf("metric %d: %+v", i, m)
		}
	}
	res = runTiny(t, "miss-storm", 3, true)
	if len(res.metrics) != len(perLayer) {
		t.Fatalf("%d per-layer metrics, want %d", len(res.metrics), len(perLayer))
	}
	byName := make(map[string]float64)
	for _, m := range res.metrics {
		byName[m.name] = m.value
	}
	for _, name := range []string{"faults.plan_hedged_ns", "backend.price_ns", "backend.utilization", "pocketsearch.query_hit_ns"} {
		if !(byName[name] > 0) {
			t.Errorf("%s = %g on miss-storm", name, byName[name])
		}
	}
}

// TestCheckCatchesBrokenAccounting feeds the invariant check a round
// whose books do not balance.
func TestCheckCatchesBrokenAccounting(t *testing.T) {
	w, sc := tiny(t, "month-replay")
	env, err := setupFleet(w, sc, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	rd := env.runClosed(nil)
	if len(rd.problems) != 0 {
		t.Fatalf("a correct round failed its checks: %v", rd.problems)
	}
	st := env.f.Stats()
	sum := summarize(rd.recs)
	if p := checkFleet(env, st, sum, rd.attempted+1); len(p) == 0 {
		t.Error("an unbooked request went unnoticed")
	}
	sum.bySource[fleet.SourceCloud]--
	sum.bySource[fleet.SourcePersonal]++
	if p := checkFleet(env, st, sum, rd.attempted); len(p) == 0 {
		t.Error("a response booked to the wrong tier went unnoticed")
	}
	sum = summarize(rd.recs)
	sum.energyJ *= 1.01
	if p := checkFleet(env, st, sum, rd.attempted); len(p) == 0 {
		t.Error("energy that does not cross-foot went unnoticed")
	}
}

// TestSpansNest checks the traced runs' span logs: every child lies
// inside its parent and every self time is non-negative.
func TestSpansNest(t *testing.T) {
	for _, name := range []string{"month-replay", "open-100k", "daily-updates"} {
		t.Run(name, func(t *testing.T) {
			res := runTiny(t, name, 11, true)
			if !res.correct {
				t.Fatal("output check failed")
			}
			spans := readSpans(t, res.spansPath)
			if len(spans) == 0 {
				t.Fatal("no spans")
			}
			byID := make(map[int64]span, len(spans))
			for _, s := range spans {
				byID[s.id] = s
			}
			for _, s := range spans {
				if s.end < s.start {
					t.Fatalf("span %+v ends before it starts", s)
				}
				if s.parent == 0 {
					continue
				}
				p, ok := byID[s.parent]
				if !ok {
					t.Fatalf("span %+v has no parent in the log", s)
				}
				if s.start < p.start || s.end > p.end {
					t.Fatalf("span %+v lies outside its parent %+v", s, p)
				}
			}
			for id, self := range selfTimes(spans) {
				if self < 0 {
					t.Fatalf("span %+v has negative self time %d", byID[id], self)
				}
			}
		})
	}
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	sc.Scan() // header
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 5 {
			t.Fatalf("bad span line %q", sc.Text())
		}
		var n [4]int64
		for i, k := range []int{0, 1, 3, 4} {
			if n[i], err = strconv.ParseInt(fields[k], 10, 64); err != nil {
				t.Fatal(err)
			}
		}
		out = append(out, span{id: n[0], parent: n[1], name: fields[2], start: n[2], end: n[3]})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSelfTimes checks the interval arithmetic on overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "a.root", start: 0, end: 100},
		{id: 2, parent: 1, name: "b.x", start: 10, end: 40},
		{id: 3, parent: 1, name: "b.y", start: 30, end: 50},
		{id: 4, parent: 1, name: "c.z", start: 70, end: 80},
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 || self[2] != 30 || self[3] != 20 || self[4] != 10 {
		t.Fatalf("self times %v", self)
	}
	if l := layerSelf(spans); l["a"] != 50 || l["b"] != 50 || l["c"] != 10 {
		t.Fatalf("layer self times %v", l)
	}
}

func TestQuantiles(t *testing.T) {
	if q := quantile([]float64{4, 1, 3, 2}, 0.5); q != 2.5 {
		t.Errorf("median %g", q)
	}
	if q := rankNS([]int64{5, 1, 4, 2, 3}, 0.99); q != 5 {
		t.Errorf("p99 rank %d", q)
	}
}

package pocketsearch

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/device"
	"pocketcloudlets/internal/engine"
	"pocketcloudlets/internal/flashsim"
	"pocketcloudlets/internal/hash64"
	"pocketcloudlets/internal/hashtable"
	"pocketcloudlets/internal/radio"
	"pocketcloudlets/internal/searchlog"
)

// rankedContent is community content holding ranks [from, to) of a
// popularity order that mixes navigational pairs (several sharing one
// result) with non-navigational ones, volumes descending by rank.
func rankedContent(u *engine.Universe, from, to int) cachegen.Content {
	var tbl searchlog.TripletTable
	for i := from; i < to; i++ {
		p := u.NavPair(i)
		if i%4 == 3 {
			p = u.NonNavPair(i)
		}
		tbl.Triplets = append(tbl.Triplets, searchlog.Triplet{Pair: p, Volume: int64(1_000_000 - i)})
		tbl.TotalVolume += int64(1_000_000 - i)
	}
	return cachegen.Generate(tbl, u, len(tbl.Triplets))
}

func newUniverse(t testing.TB) *engine.Universe {
	t.Helper()
	u, err := engine.NewUniverse(engine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// jitteredCache is an empty cache on a device whose flash latencies
// carry seeded jitter, so the device statistics depend on the order of
// every flash operation, not only on their sizes.
func jitteredCache(t testing.TB, u *engine.Universe) *Cache {
	t.Helper()
	dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{JitterFrac: 0.12, Seed: 3})
	c, err := New(dev, engine.New(u), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// refPreload is the map-based Preload the sorted merge replaced, with
// its file rewrites put in ascending order: each touched file's stored
// records are copied into a map, the new records added (first seen
// wins among them, and they win over stored ones) and the file
// replaced.
func refPreload(c *Cache, content cachegen.Content) error {
	u := c.eng.Universe()
	perFile := make(map[int]map[uint64][]byte)
	for _, tr := range content.Triplets {
		q := u.QueryText(u.QueryOf(tr.Pair))
		res := u.Result(u.ResultOf(tr.Pair))
		qh := hash64.Sum(q)
		rh := hash64.Sum(res.URL)
		c.table.Put(qh, hashtable.SearchRef{ResultHash: rh, Score: content.Scores[tr.Pair]})
		c.indexQuery(qh, q, float64(tr.Volume))
		f := c.db.FileOf(rh)
		if perFile[f] == nil {
			perFile[f] = make(map[uint64][]byte)
		}
		if _, dup := perFile[f][rh]; !dup {
			perFile[f][rh] = res.Record()
		}
	}
	for f := 0; f < c.db.Files(); f++ {
		recs, ok := perFile[f]
		if !ok {
			continue
		}
		existing, err := c.db.RecordsOf(f)
		if err != nil {
			return err
		}
		for rh, rec := range existing {
			if _, ok := recs[rh]; !ok {
				recs[rh] = rec
			}
		}
		if _, err := c.db.ReplaceFile(f, recs); err != nil {
			return err
		}
	}
	return nil
}

// queryOutcome is what one query of the preload scenario observed.
type queryOutcome struct {
	hit  bool
	took time.Duration
}

// preloadScenario drives a cache through a community preload (load
// step 0), a stream of queries whose misses append records out of hash
// order, and a second preload overlapping both (load step 1). It
// returns each query's hit/miss and response time, in order.
func preloadScenario(t *testing.T, c *Cache, load func(c *Cache, step int) error) []queryOutcome {
	t.Helper()
	u := c.eng.Universe()
	if err := load(c, 0); err != nil {
		t.Fatalf("first preload: %v", err)
	}
	var outs []queryOutcome
	for i := 1400; i < 1600; i += 2 {
		q, url := u.QueryText(u.QueryOf(u.NavPair(i))), u.ResultURL(u.ResultOf(u.NavPair(i)))
		out, err := c.Query(q, url)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		outs = append(outs, queryOutcome{hit: out.Hit, took: out.ResponseTime()})
	}
	if err := load(c, 1); err != nil {
		t.Fatalf("second preload: %v", err)
	}
	return outs
}

// requireSameOutcomes fails at the first query whose hit/miss or
// response time differs from the reference's.
func requireSameOutcomes(t *testing.T, what string, got, want []queryOutcome) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d query outcomes, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: query %d hit %v in %v, reference hit %v in %v",
				what, i, got[i].hit, got[i].took, want[i].hit, want[i].took)
		}
	}
}

// mustPrepare is Prepare for content the test knows to be valid.
func mustPrepare(t testing.TB, u *engine.Universe, files int, content cachegen.Content) *Prepared {
	t.Helper()
	p, err := Prepare(u, files, content)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requireSameCache fails unless two caches hold the same file bytes,
// hash table (ranking order included), query texts and completion
// scores, and report the same activity, flash statistics, model clock
// and energy.
func requireSameCache(t *testing.T, what string, c, ref *Cache) {
	t.Helper()
	store, refStore := c.Device().Store(), ref.Device().Store()
	names := refStore.Names()
	if len(names) != c.DB().Files() || !slices.Equal(store.Names(), names) {
		t.Fatalf("%s: wrote files %v, reference %v", what, store.Names(), names)
	}
	for _, name := range names {
		got, _ := store.Peek(name)
		want, _ := refStore.Peek(name)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: file %s differs from the reference (%d vs %d bytes)", what, name, len(got), len(want))
		}
	}
	pairs, refPairs := c.Table().Pairs(), ref.Table().Pairs()
	if !slices.Equal(pairs, refPairs) || c.Table().FootprintBytes() != ref.Table().FootprintBytes() {
		t.Fatalf("%s: hash table holds %d pairs, reference %d", what, len(pairs), len(refPairs))
	}
	for _, p := range refPairs {
		if got, want := c.Table().Lookup(p.QueryHash), ref.Table().Lookup(p.QueryHash); !slices.Equal(got, want) {
			t.Fatalf("%s: query %x ranks %v, reference %v", what, p.QueryHash, got, want)
		}
	}
	texts, refTexts := c.QueryTexts(), ref.QueryTexts()
	if !maps.Equal(texts, refTexts) {
		t.Fatalf("%s: %d query texts, reference %d", what, len(texts), len(refTexts))
	}
	for _, q := range refTexts {
		got, gotOK := c.completions.Score(q)
		want, wantOK := ref.completions.Score(q)
		if got != want || gotOK != wantOK {
			t.Fatalf("%s: completion %q scores %v (%v), reference %v (%v)", what, q, got, gotOK, want, wantOK)
		}
	}
	if c.completions.Len() != ref.completions.Len() {
		t.Fatalf("%s: %d completions, reference %d", what, c.completions.Len(), ref.completions.Len())
	}
	if got, want := c.Stats(), ref.Stats(); got != want {
		t.Errorf("%s: cache stats %+v, reference %+v", what, got, want)
	}
	if got, want := c.Device().Flash().Stats(), ref.Device().Flash().Stats(); got != want {
		t.Errorf("%s: flash stats %+v, reference %+v", what, got, want)
	}
	if c.Device().Now() != ref.Device().Now() || c.Device().TotalEnergy() != ref.Device().TotalEnergy() {
		t.Errorf("%s: device at %v with %v J, reference at %v with %v J", what,
			c.Device().Now(), c.Device().TotalEnergy(), ref.Device().Now(), ref.Device().TotalEnergy())
	}
}

// TestPreloadMatchesMapReference runs the preload scenario on a cache
// loading through Preload, on several caches installing one shared
// Prepared per content, and on a reference cache loading through the
// map-based refPreload, and requires every cache to match the
// reference.
func TestPreloadMatchesMapReference(t *testing.T) {
	u := newUniverse(t)
	contents := []cachegen.Content{rankedContent(u, 0, 1500), rankedContent(u, 1450, 1800)}
	ref := jitteredCache(t, u)
	refOuts := preloadScenario(t, ref, func(c *Cache, step int) error { return refPreload(c, contents[step]) })

	c := jitteredCache(t, u)
	outs := preloadScenario(t, c, func(c *Cache, step int) error { return c.Preload(contents[step]) })
	requireSameOutcomes(t, "Preload", outs, refOuts)
	requireSameCache(t, "Preload", c, ref)

	prepared := []*Prepared{mustPrepare(t, u, 0, contents[0]), mustPrepare(t, u, 0, contents[1])}
	for i := 0; i < 3; i++ {
		what := fmt.Sprintf("shared Prepared, cache %d", i)
		c := jitteredCache(t, u)
		outs := preloadScenario(t, c, func(c *Cache, step int) error { return c.Install(prepared[step]) })
		requireSameOutcomes(t, what, outs, refOuts)
		requireSameCache(t, what, c, ref)
	}
}

// TestInstallSharedPreparedConcurrently installs one Prepared into
// several caches from concurrent goroutines — as fleet shard builds
// do — and requires each to match a cache preloaded alone. Under the
// race detector it also proves Install only reads the shared content.
func TestInstallSharedPreparedConcurrently(t *testing.T) {
	u := newUniverse(t)
	content := rankedContent(u, 0, 1500)
	ref := jitteredCache(t, u)
	if err := ref.Preload(content); err != nil {
		t.Fatal(err)
	}
	p := mustPrepare(t, u, 0, content)
	caches := make([]*Cache, 4)
	errs := make([]error, len(caches))
	var wg sync.WaitGroup
	for i := range caches {
		caches[i] = jitteredCache(t, u)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = caches[i].Install(p)
		}(i)
	}
	wg.Wait()
	for i, c := range caches {
		if errs[i] != nil {
			t.Fatalf("cache %d: %v", i, errs[i])
		}
		requireSameCache(t, fmt.Sprintf("cache %d", i), c, ref)
	}
}

// TestInstallRejectsOtherLayout: content prepared for one database file
// count cannot be installed into a cache with another, and content
// cannot be prepared for a negative file count.
func TestInstallRejectsOtherLayout(t *testing.T) {
	u := newUniverse(t)
	dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
	c, err := New(dev, engine.New(u), Options{DatabaseFiles: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Install(mustPrepare(t, u, 0, rankedContent(u, 0, 10))); err == nil {
		t.Fatal("installed content prepared for 32 files into an 8-file cache")
	}
	if err := c.Install(mustPrepare(t, u, 8, rankedContent(u, 0, 10))); err != nil {
		t.Fatal(err)
	}
	if p, err := Prepare(u, -1, rankedContent(u, 0, 10)); err == nil {
		t.Fatalf("prepared content for -1 database files: %d files", p.files)
	}
}

// TestPreloadDeterministicUnderJitter: two identical caches preloaded
// identically report identical flash statistics on a jittered device,
// which holds only if Preload rewrites files in a fixed order.
func TestPreloadDeterministicUnderJitter(t *testing.T) {
	u := newUniverse(t)
	var stats []flashsim.Stats
	for run := 0; run < 2; run++ {
		c := jitteredCache(t, u)
		for _, content := range []cachegen.Content{rankedContent(u, 0, 2000), rankedContent(u, 1900, 2100)} {
			if err := c.Preload(content); err != nil {
				t.Fatal(err)
			}
		}
		stats = append(stats, c.Device().Flash().Stats())
	}
	if stats[0] != stats[1] {
		t.Errorf("identical preloads reported different flash stats:\n%+v\n%+v", stats[0], stats[1])
	}
}

// BenchmarkPreloadDelta applies a §6.2.2-sized daily delta — 200 pairs
// entering the popular set — to a cache holding community content of
// the evaluation cache's size. Every iteration rewrites the same files
// with the same bytes, so iterations cost the same.
func BenchmarkPreloadDelta(b *testing.B) {
	u := newUniverse(b)
	dev := device.New(device.Config{}, radio.ThreeG(), flashsim.Params{})
	c, err := Build(dev, engine.New(u), rankedContent(u, 0, 8000), Options{})
	if err != nil {
		b.Fatal(err)
	}
	delta := rankedContent(u, 8000, 8200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Preload(delta); err != nil {
			b.Fatal(err)
		}
	}
}

package pocketsearch

import (
	"bytes"
	"testing"

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

// TestPreloadMatchesMapReference drives a cache and a reference cache
// through a community preload, a stream of queries whose misses append
// records out of hash order, and a second preload overlapping both, and
// requires identical outcomes, file bytes and flash statistics.
func TestPreloadMatchesMapReference(t *testing.T) {
	u := newUniverse(t)
	c, ref := jitteredCache(t, u), jitteredCache(t, u)
	step := func(what string, got, want error) {
		t.Helper()
		if got != nil || want != nil {
			t.Fatalf("%s: %v, reference %v", what, got, want)
		}
	}
	step("first preload", c.Preload(rankedContent(u, 0, 1500)), refPreload(ref, rankedContent(u, 0, 1500)))
	for i := 1400; i < 1600; i += 2 {
		q, url := u.QueryText(u.QueryOf(u.NavPair(i))), u.ResultURL(u.ResultOf(u.NavPair(i)))
		out, err := c.Query(q, url)
		refOut, refErr := ref.Query(q, url)
		step("query", err, refErr)
		if out.Hit != refOut.Hit || out.ResponseTime() != refOut.ResponseTime() {
			t.Fatalf("query %d: hit %v in %v, reference hit %v in %v", i, out.Hit, out.ResponseTime(), refOut.Hit, refOut.ResponseTime())
		}
	}
	step("second preload", c.Preload(rankedContent(u, 1450, 1800)), refPreload(ref, rankedContent(u, 1450, 1800)))

	store, refStore := c.Device().Store(), ref.Device().Store()
	names := refStore.Names()
	if len(names) != c.DB().Files() {
		t.Fatalf("reference wrote %d files, want %d", len(names), c.DB().Files())
	}
	for _, name := range names {
		got, _ := store.Peek(name)
		want, _ := refStore.Peek(name)
		if !bytes.Equal(got, want) {
			t.Fatalf("file %s differs from the reference (%d vs %d bytes)", name, len(got), len(want))
		}
	}
	if got, want := c.Device().Flash().Stats(), ref.Device().Flash().Stats(); got != want {
		t.Errorf("flash stats %+v, reference %+v", got, want)
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

package searchlog

import (
	"cmp"
	"slices"
)

// Triplet is one row of the paper's Table 3: a (query, search result)
// pair and the number of log entries in which that result was clicked
// after that query.
type Triplet struct {
	Pair   PairID
	Volume int64
}

// TripletTable is the Table 3 structure: triplets sorted by descending
// volume (ties broken by ascending PairID for determinism).
type TripletTable struct {
	Triplets    []Triplet
	TotalVolume int64
}

// ExtractTriplets aggregates a log into the sorted triplet table.
func ExtractTriplets(entries []Entry) TripletTable {
	counts := make(map[PairID]int64)
	for _, e := range entries {
		counts[e.Pair]++
	}
	t := TripletTable{Triplets: make([]Triplet, 0, len(counts))}
	for p, v := range counts {
		t.Triplets = append(t.Triplets, Triplet{Pair: p, Volume: v})
		t.TotalVolume += v
	}
	slices.SortFunc(t.Triplets, CompareTriplets)
	return t
}

// CompareTriplets orders triplets as a TripletTable holds them:
// descending volume, then ascending PairID. The order is total, so any
// sort yields the same table.
func CompareTriplets(a, b Triplet) int {
	if c := cmp.Compare(b.Volume, a.Volume); c != 0 {
		return c
	}
	return cmp.Compare(a.Pair, b.Pair)
}

// NormalizedVolume returns the triplet's volume divided by the table's
// total volume — the quantity the cache saturation threshold of
// Section 5.1 compares against.
func (t TripletTable) NormalizedVolume(i int) float64 {
	if t.TotalVolume == 0 {
		return 0
	}
	return float64(t.Triplets[i].Volume) / float64(t.TotalVolume)
}

// CumulativeShare returns the fraction of total volume covered by the
// first n triplets — the y-axis of the paper's Figure 7.
func (t TripletTable) CumulativeShare(n int) float64 {
	if t.TotalVolume == 0 {
		return 0
	}
	if n > len(t.Triplets) {
		n = len(t.Triplets)
	}
	var sum int64
	for i := 0; i < n; i++ {
		sum += t.Triplets[i].Volume
	}
	return float64(sum) / float64(t.TotalVolume)
}

// RankingScores computes the per-query normalized ranking score of each
// triplet in the table's prefix of length n: a triplet's volume divided
// by the total volume of all triplets (in the prefix) that share its
// query. This is the score generation step of Section 5.1 — for query
// "michael jackson" with results at volumes 10^6 and 9*10^5, the scores
// are 0.53 and 0.47.
func (t TripletTable) RankingScores(meta PairMeta, n int) map[PairID]float64 {
	if n > len(t.Triplets) {
		n = len(t.Triplets)
	}
	perQuery := make(map[QueryID]int64)
	for i := 0; i < n; i++ {
		tr := t.Triplets[i]
		perQuery[meta.QueryOf(tr.Pair)] += tr.Volume
	}
	scores := make(map[PairID]float64, n)
	for i := 0; i < n; i++ {
		tr := t.Triplets[i]
		q := meta.QueryOf(tr.Pair)
		if tot := perQuery[q]; tot > 0 {
			scores[tr.Pair] = float64(tr.Volume) / float64(tot)
		}
	}
	return scores
}

package experiments

import (
	"cmp"
	"slices"
	"strconv"
	"testing"

	"pocketcloudlets/internal/searchlog"
)

// TestDailyUpdatesGolden pins the Section 6.2.2 experiment's output on
// a small lab to the exact values of the full-sort implementation, and
// checks that the experiment reads the lab's month log in the time
// order Generator.MonthLog gives it without reordering it.
func TestDailyUpdatesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests generate month-scale logs")
	}
	l := NewLab(1, 2000, 10)
	month1 := l.MonthLog(1).Entries
	if !slices.IsSortedFunc(month1, func(a, b searchlog.Entry) int { return cmp.Compare(a.At, b.At) }) {
		t.Fatal("month log is not in time order")
	}
	before := slices.Clone(month1)

	r := DailyUpdates(l)
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	for _, c := range []struct{ name, got, want string }{
		{"StaticAvg", f(r.StaticAvg), "0.6878250972212963"},
		{"DailyAvg", f(r.DailyAvg), "0.6880691983266968"},
		{"ChangedPairsPerDay", f(r.ChangedPairsPerDay), "110.53333333333333"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %s, want %s", c.name, c.got, c.want)
		}
	}
	if !slices.Equal(l.MonthLog(1).Entries, before) {
		t.Error("DailyUpdates reordered the lab's month log")
	}
}

// tableFromCounts is the full sort the daily table replaces: every
// count becomes a triplet and the whole table is sorted.
func tableFromCounts(counts map[searchlog.PairID]int64, total int64) searchlog.TripletTable {
	tbl := searchlog.TripletTable{TotalVolume: total}
	for p, v := range counts {
		tbl.Triplets = append(tbl.Triplets, searchlog.Triplet{Pair: p, Volume: v})
	}
	slices.SortFunc(tbl.Triplets, searchlog.CompareTriplets)
	return tbl
}

// FuzzDailyTable checks the incremental daily table against a full sort
// of the same counts. ops is a sequence of counts: each byte except
// 0xff counts one occurrence of pair b%48, and 0xff ends a batch. The
// first batch builds the starting table; every later one is applied by
// an advance, whose table must equal the full sort's. The small pair
// space gives many equal volumes, and pairs absent from the starting
// table enter later.
func FuzzDailyTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		counts := make(map[searchlog.PairID]int64)
		var total int64
		var d *dailyTable
		var base, baseCopy []searchlog.Triplet
		for _, b := range append(ops, 0xff) {
			if b != 0xff {
				p := searchlog.PairID(b % 48)
				counts[p]++
				total++
				if d != nil {
					d.add(p)
				}
				continue
			}
			want := tableFromCounts(counts, total)
			if d == nil {
				d = newDailyTable(want)
				base, baseCopy = want.Triplets, slices.Clone(want.Triplets)
				continue
			}
			got := d.advance()
			if got.TotalVolume != want.TotalVolume || !slices.Equal(got.Triplets, want.Triplets) {
				t.Fatalf("incremental table\n%v (total %d)\nfull sort\n%v (total %d)", got.Triplets, got.TotalVolume, want.Triplets, want.TotalVolume)
			}
			if !slices.Equal(base, baseCopy) {
				t.Fatal("advance wrote the starting table")
			}
		}
	})
}

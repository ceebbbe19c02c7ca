package experiments

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"pocketcloudlets/internal/cachegen"
	"pocketcloudlets/internal/replay"
	"pocketcloudlets/internal/searchlog"
	"pocketcloudlets/internal/workload"
)

// runReplay executes (and caches) one Figure 17 replay configuration;
// Figures 17, 18 and 19 all read from the same three replays.
func (l *Lab) runReplay(mode replay.Mode) replay.Result {
	if l.replays == nil {
		l.replays = make(map[replay.Mode]replay.Result)
	}
	if res, ok := l.replays[mode]; ok {
		return res
	}
	res, err := replay.Run(replay.Config{
		Gen:           l.Generator(),
		Content:       l.Content(0, EvalShare),
		Mode:          mode,
		UsersPerClass: l.UsersPerClass,
		Month:         1,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: replay: %v", err))
	}
	l.replays[mode] = res
	return res
}

// Fig17Result carries per-mode, per-class hit rates.
type Fig17Result struct {
	Modes   []replay.Mode
	Results []replay.Result
}

// Fig17 replays the month-1 streams of sampled users of every class
// against the month-0 cache in the full, community-only and
// personalization-only configurations.
func Fig17(l *Lab) Fig17Result {
	var r Fig17Result
	for _, m := range replay.Modes() {
		r.Modes = append(r.Modes, m)
		r.Results = append(r.Results, l.runReplay(m))
	}
	return r
}

// Rate returns the hit rate for a mode and class.
func (r Fig17Result) Rate(mode replay.Mode, class workload.Class) float64 {
	for i, m := range r.Modes {
		if m == mode {
			return r.Results[i].ClassRate(class)
		}
	}
	return 0
}

// Average returns the mode's class-averaged hit rate.
func (r Fig17Result) Average(mode replay.Mode) float64 {
	for i, m := range r.Modes {
		if m == mode {
			var sum float64
			for _, cr := range r.Results[i].Classes {
				sum += cr.HitRate
			}
			return sum / float64(len(r.Results[i].Classes))
		}
	}
	return 0
}

// Table renders the hit rates.
func (r Fig17Result) Table() Table {
	t := Table{
		ID:      "Figure 17",
		Title:   "PocketSearch average cache hit rate per user class",
		Columns: []string{"configuration", "low", "medium", "high", "extreme", "average"},
		Notes: []string{
			"paper: full ~60/70/75/75 (avg 65%); community-only avg 55%, rising with volume; personalization-only avg 56.5%",
		},
	}
	for i, m := range r.Modes {
		row := []string{m.String()}
		for _, c := range workload.Classes() {
			row = append(row, percent(r.Results[i].ClassRate(c)))
		}
		row = append(row, percent(r.Average(m)))
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig18Result carries the warm-up dynamics: cumulative hit rates after
// week one and after weeks one-two, per mode and class.
type Fig18Result struct {
	Modes []replay.Mode
	// Week1[m][c] and Weeks12[m][c] index by mode then class.
	Week1   [][]float64
	Weeks12 [][]float64
}

// Fig18 computes the Figure 18 warm-up curves from the same replays.
func Fig18(l *Lab) Fig18Result {
	var r Fig18Result
	for _, m := range replay.Modes() {
		res := l.runReplay(m)
		var w1, w12 []float64
		for _, cr := range res.Classes {
			w1 = append(w1, cr.CumWeekHitRate[0])
			w12 = append(w12, cr.CumWeekHitRate[1])
		}
		r.Modes = append(r.Modes, m)
		r.Week1 = append(r.Week1, w1)
		r.Weeks12 = append(r.Weeks12, w12)
	}
	return r
}

// Table renders both panels.
func (r Fig18Result) Table() Table {
	t := Table{
		ID:      "Figure 18",
		Title:   "Average cache hit rate during the first week (a) and first two weeks (b)",
		Columns: []string{"configuration", "window", "low", "medium", "high", "extreme"},
		Notes: []string{
			"paper: the community component provides the warm start; personalization lags it during week one, especially for light users",
		},
	}
	for i, m := range r.Modes {
		row1 := []string{m.String(), "week 1"}
		row2 := []string{m.String(), "weeks 1-2"}
		for c := range workload.Classes() {
			row1 = append(row1, percent(r.Week1[i][c]))
			row2 = append(row2, percent(r.Weeks12[i][c]))
		}
		t.Rows = append(t.Rows, row1, row2)
	}
	return t
}

// Fig19Result carries the navigational share of hits per class.
type Fig19Result struct {
	Classes  []workload.Class
	NavShare []float64
}

// Fig19 breaks the full configuration's cache hits into navigational
// and non-navigational per class.
func Fig19(l *Lab) Fig19Result {
	res := l.runReplay(replay.Full)
	var r Fig19Result
	for _, cr := range res.Classes {
		r.Classes = append(r.Classes, cr.Class)
		r.NavShare = append(r.NavShare, cr.NavShare)
	}
	return r
}

// Table renders the breakdown.
func (r Fig19Result) Table() Table {
	t := Table{
		ID:      "Figure 19",
		Title:   "Breakdown of cache hits into navigational and non-navigational",
		Columns: []string{"user class", "navigational", "non-navigational"},
		Notes: []string{
			"paper: ~59% of hits are navigational on average; high/extreme classes have markedly higher non-navigational shares",
		},
	}
	for i, c := range r.Classes {
		t.Rows = append(t.Rows, []string{
			c.String(), percent(r.NavShare[i]), percent(1 - r.NavShare[i]),
		})
	}
	return t
}

// DailyUpdatesResult compares static and daily-updated caches.
type DailyUpdatesResult struct {
	StaticAvg float64
	DailyAvg  float64
	// ChangedPairsPerDay is the mean size of the daily popular-set
	// delta (adds + removes).
	ChangedPairsPerDay float64
}

// DailyUpdates reproduces the Section 6.2.2 experiment: the community
// popular set is re-extracted daily from a sliding window that absorbs
// the replay month's traffic, and the per-day delta is applied to each
// user's cache. The paper measured a 1.5-point improvement (66% vs 65%)
// because the popular set changes little within a month.
func DailyUpdates(l *Lab) DailyUpdatesResult {
	static := l.runReplay(replay.Full)

	// Build per-day popular sets over month0 + month1[:day]. The month
	// log is in time order already (Generator.MonthLog sorts it).
	month1 := l.MonthLog(1).Entries
	running := newDailyTable(l.Triplets(0))
	deltas := make([]replay.Delta, 31)
	prevSet := contentPairSet(l.Content(0, EvalShare))
	idx := 0
	totalChanged := 0
	for day := 1; day <= 30; day++ {
		cutoff := time.Duration(day) * 24 * time.Hour
		for idx < len(month1) && month1[idx].At < cutoff {
			running.add(month1[idx].Pair)
			idx++
		}
		// Only the delta outlives a day: it copies the triplets it keeps.
		tbl := running.advance()
		n, err := cachegen.SelectByShare(tbl, EvalShare)
		if err != nil {
			panic(err)
		}
		content := cachegen.Generate(tbl, l.Universe(), n)
		newSet := contentPairSet(content)
		delta := diffContent(content, prevSet, newSet)
		totalChanged += len(delta.Add.Triplets) + len(delta.Remove)
		deltas[day] = delta
		prevSet = newSet
	}

	daily, err := replay.Run(replay.Config{
		Gen:           l.Generator(),
		Content:       l.Content(0, EvalShare),
		Mode:          replay.Full,
		UsersPerClass: l.UsersPerClass,
		Month:         1,
		DailyDelta: func(day int) replay.Delta {
			if day >= 1 && day < len(deltas) {
				return deltas[day]
			}
			return replay.Delta{}
		},
	})
	if err != nil {
		panic(err)
	}

	avg := func(res replay.Result) float64 {
		var sum float64
		for _, cr := range res.Classes {
			sum += cr.HitRate
		}
		return sum / float64(len(res.Classes))
	}
	return DailyUpdatesResult{
		StaticAvg:          avg(static),
		DailyAvg:           avg(daily),
		ChangedPairsPerDay: float64(totalChanged) / 30,
	}
}

func contentPairSet(c cachegen.Content) map[searchlog.PairID]bool {
	set := make(map[searchlog.PairID]bool, len(c.Triplets))
	for _, tr := range c.Triplets {
		set[tr.Pair] = true
	}
	return set
}

// diffContent computes the delta from prevSet to the new content.
func diffContent(content cachegen.Content, prevSet, newSet map[searchlog.PairID]bool) replay.Delta {
	var d replay.Delta
	d.Add.Scores = make(map[searchlog.PairID]float64)
	for _, tr := range content.Triplets {
		if !prevSet[tr.Pair] {
			d.Add.Triplets = append(d.Add.Triplets, tr)
			d.Add.Scores[tr.Pair] = content.Scores[tr.Pair]
		}
	}
	for p := range prevSet {
		if !newSet[p] {
			d.Remove = append(d.Remove, p)
		}
	}
	sort.Slice(d.Remove, func(i, j int) bool { return d.Remove[i] < d.Remove[j] })
	return d
}

// dailyTable is a triplet table kept sorted while its counts grow.
// Each advance moves only the triplets whose counts changed since the
// previous one: it finds each at its old key by binary search, drops
// it, and merges the changed triplets back in at their new keys. Since
// CompareTriplets is a total order, the result is the table a full
// sort of every count would give.
type dailyTable struct {
	counts map[searchlog.PairID]int64
	// pending maps each pair counted since the last advance to its
	// count at that advance (zero for a pair first seen since then).
	pending map[searchlog.PairID]int64
	total   int64
	// cur is the sorted table; spare is the buffer the next advance
	// builds into, so two buffers serve every day.
	cur, spare []searchlog.Triplet
	// drop and moved are advance's scratch.
	drop  []int
	moved []searchlog.Triplet
}

// newDailyTable starts from a sorted table, which it does not modify.
func newDailyTable(base searchlog.TripletTable) *dailyTable {
	d := &dailyTable{
		counts:  make(map[searchlog.PairID]int64, len(base.Triplets)),
		pending: make(map[searchlog.PairID]int64),
		total:   base.TotalVolume,
		cur:     slices.Clone(base.Triplets),
	}
	for _, tr := range base.Triplets {
		d.counts[tr.Pair] = tr.Volume
	}
	return d
}

// add counts one more occurrence of p.
func (d *dailyTable) add(p searchlog.PairID) {
	v := d.counts[p]
	if _, ok := d.pending[p]; !ok {
		d.pending[p] = v
	}
	d.counts[p] = v + 1
	d.total++
}

// advance folds the counts added since the last call into the table
// and returns it. The table, and content generated from it, are valid
// until the next advance.
func (d *dailyTable) advance() searchlog.TripletTable {
	d.drop, d.moved = d.drop[:0], d.moved[:0]
	for p, old := range d.pending {
		if old > 0 {
			i, ok := slices.BinarySearchFunc(d.cur, searchlog.Triplet{Pair: p, Volume: old}, searchlog.CompareTriplets)
			if !ok {
				panic(fmt.Sprintf("experiments: pair %d missing from the daily table at volume %d", p, old))
			}
			d.drop = append(d.drop, i)
		}
		d.moved = append(d.moved, searchlog.Triplet{Pair: p, Volume: d.counts[p]})
	}
	clear(d.pending)
	slices.Sort(d.drop)
	slices.SortFunc(d.moved, searchlog.CompareTriplets)

	out, drop, moved := d.spare[:0], d.drop, d.moved
	for i, tr := range d.cur {
		if len(drop) > 0 && drop[0] == i {
			drop = drop[1:]
			continue
		}
		for len(moved) > 0 && searchlog.CompareTriplets(moved[0], tr) < 0 {
			out = append(out, moved[0])
			moved = moved[1:]
		}
		out = append(out, tr)
	}
	out = append(out, moved...)
	d.cur, d.spare = out, d.cur
	return searchlog.TripletTable{Triplets: d.cur, TotalVolume: d.total}
}

// Table renders the comparison.
func (r DailyUpdatesResult) Table() Table {
	return Table{
		ID:      "Section 6.2.2",
		Title:   "Daily cache updates",
		Columns: []string{"configuration", "average hit rate"},
		Rows: [][]string{
			{"monthly cache (static)", percent(r.StaticAvg)},
			{"daily updates", percent(r.DailyAvg)},
		},
		Notes: []string{
			"paper: 66% with daily updates vs 65% without — the popular set changes little within the month",
			fmt.Sprintf("measured mean daily popular-set churn: %.0f pairs", r.ChangedPairsPerDay),
		},
	}
}

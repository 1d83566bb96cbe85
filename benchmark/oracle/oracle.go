// Package oracle checks a match stream against the sequential reference
// engine and attributes detection lag to the event a match had to wait
// for. It is the one comparator of the benchmark: every workload's
// failed count comes from Compare.
package oracle

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/spectrecep/spectre/internal/event"
)

// Key is the canonical form of a match: everything the engine reports
// about it. Two engines agree on a match when they agree on its key.
func Key(c *event.Complex) string {
	var b strings.Builder
	b.WriteString(c.Key())
	b.WriteString("|d")
	b.WriteString(strconv.FormatUint(c.DetectedAt, 10))
	b.WriteString("|c")
	for i, s := range c.Consumed {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatUint(s, 10))
	}
	return b.String()
}

// Keys maps matches to their canonical keys.
func Keys(ms []event.Complex) []string {
	out := make([]string, len(ms))
	for i := range ms {
		out[i] = Key(&ms[i])
	}
	return out
}

// Diff counts how a delivered match stream departs from the expected one.
type Diff struct {
	Expected  int // matches the reference produced
	Missing   int // expected, never delivered
	Extra     int // delivered, not expected (a duplicate is an extra)
	Reordered int // delivered and expected, but out of its group's order
}

// Failed is the number of matches that count against the run.
func (d Diff) Failed() int { return d.Missing + d.Extra + d.Reordered }

// Add folds another comparison into d.
func (d *Diff) Add(o Diff) {
	d.Expected += o.Expected
	d.Missing += o.Missing
	d.Extra += o.Extra
	d.Reordered += o.Reordered
}

// Compare checks got, the stream one sink received, against want, the
// reference output of every (query, shard) group that feeds the sink.
// Within a group the order is part of the contract; across groups the
// interleaving is free. The engine numbers events per shard, so two
// shards can produce the same key: a key that only one group expects is
// checked for order within that group, a key several groups expect can
// not be attributed and is checked as a multiset.
func Compare(want [][]string, got []string) Diff {
	const shared = -1
	owner := make(map[string]int)
	for g, keys := range want {
		for _, k := range keys {
			if prev, ok := owner[k]; ok && prev != g {
				owner[k] = shared
			} else {
				owner[k] = g
			}
		}
	}
	wantOwn := make([][]string, len(want))
	gotOwn := make([][]string, len(want))
	var wantShared, gotShared []string
	for g, keys := range want {
		for _, k := range keys {
			if owner[k] == shared {
				wantShared = append(wantShared, k)
			} else {
				wantOwn[g] = append(wantOwn[g], k)
			}
		}
	}
	var d Diff
	for _, k := range got {
		switch g, ok := owner[k]; {
		case !ok:
			d.Extra++
		case g == shared:
			gotShared = append(gotShared, k)
		default:
			gotOwn[g] = append(gotOwn[g], k)
		}
	}
	for g := range want {
		d.Add(compareOrdered(wantOwn[g], gotOwn[g]))
	}
	sort.Strings(wantShared)
	sort.Strings(gotShared)
	d.Add(compareOrdered(wantShared, gotShared))
	return d
}

// compareOrdered diffs one group. A delivered key is matched to the
// earliest unmatched expected position holding it; matched keys that fall
// outside the longest run already in expected order are the reordered
// ones (moving one match costs one).
func compareOrdered(want, got []string) Diff {
	d := Diff{Expected: len(want)}
	at := make(map[string][]int, len(want))
	for i, k := range want {
		at[k] = append(at[k], i)
	}
	var idx []int
	for _, k := range got {
		if q := at[k]; len(q) > 0 {
			idx = append(idx, q[0])
			at[k] = q[1:]
		} else {
			d.Extra++
		}
	}
	d.Missing = len(want) - len(idx)
	// Longest strictly increasing subsequence, by patience sorting.
	var tails []int
	for _, v := range idx {
		i := sort.SearchInts(tails, v)
		if i == len(tails) {
			tails = append(tails, v)
		} else {
			tails[i] = v
		}
	}
	d.Reordered = len(idx) - len(tails)
	return d
}

// Window is one window of the stream as positions: events Start..End-1.
type Window struct{ Start, End uint64 }

// Anchor returns the position of the event a match had to wait for: the
// event that completed it, or the last event of the preceding window when
// that comes later — output is in window order, so a match cannot leave
// before the window ahead of it has ended. Lag measured from the anchor
// holds queue wait and speculation delay and leaves the window length
// out. streamLen clips a window the stream ended inside.
func Anchor(windows []Window, windowID, detectedAt, streamLen uint64) uint64 {
	a := detectedAt
	if windowID > 0 && windowID <= uint64(len(windows)) {
		end := windows[windowID-1].End
		if end > streamLen {
			end = streamLen
		}
		if end > 0 && end-1 > a {
			a = end - 1
		}
	}
	return a
}

// Lags returns, per expected match, the time from when its anchor event
// was due to when the match was seen, in the unit of the inputs. seen[i]
// is negative for a match that never arrived; its lag is +Inf, so it
// counts as over any limit.
func Lags(due []float64, anchors []uint64, seen []float64) []float64 {
	lags := make([]float64, len(anchors))
	for i, a := range anchors {
		if seen[i] < 0 {
			lags[i] = math.Inf(1)
			continue
		}
		lags[i] = seen[i] - due[a]
	}
	return lags
}

package oracle

import (
	"math"
	"testing"

	"github.com/spectrecep/spectre/internal/event"
)

func keys(q string, wins ...uint64) []string {
	out := make([]string, len(wins))
	for i, w := range wins {
		c := event.Complex{Query: q, WindowID: w, Constituents: []uint64{w * 10, w*10 + 1}, Consumed: []uint64{w * 10}, DetectedAt: w*10 + 1}
		out[i] = Key(&c)
	}
	return out
}

func TestKeyHoldsEveryReportedField(t *testing.T) {
	c := event.Complex{Query: "q", WindowID: 3, Constituents: []uint64{4, 9}, Consumed: []uint64{4}, DetectedAt: 9}
	if got, want := Key(&c), "q@3:4,9|d9|c4"; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
}

func TestCompareFlagsDroppedDuplicatedReordered(t *testing.T) {
	want := [][]string{keys("q", 0, 1, 2, 3, 4)}
	cases := []struct {
		name string
		got  []string
		diff Diff
	}{
		{"same", keys("q", 0, 1, 2, 3, 4), Diff{Expected: 5}},
		{"one dropped", keys("q", 0, 1, 3, 4), Diff{Expected: 5, Missing: 1}},
		{"one duplicated", keys("q", 0, 1, 1, 2, 3, 4), Diff{Expected: 5, Extra: 1}},
		{"one reordered", keys("q", 0, 3, 1, 2, 4), Diff{Expected: 5, Reordered: 1}},
		{"one unknown", append(keys("q", 0, 1, 2, 3, 4), "q@9:1|d1|c"), Diff{Expected: 5, Extra: 1}},
		{"nothing delivered", nil, Diff{Expected: 5, Missing: 5}},
	}
	for _, c := range cases {
		got := Compare(want, c.got)
		if got != c.diff {
			t.Errorf("%s: %+v, want %+v", c.name, got, c.diff)
		}
		if (got.Failed() == 0) != (c.name == "same") {
			t.Errorf("%s: Failed() = %d", c.name, got.Failed())
		}
	}
}

func TestCompareGroups(t *testing.T) {
	// Two shards of one query; windows 0 and 1 give the same key on both
	// (per-shard numbering), windows 2.. are told apart by a second query
	// name standing in for distinct events.
	a := append(keys("q", 0, 1), keys("a", 2, 3, 4)...)
	b := append(keys("q", 0, 1), keys("b", 2, 3)...)
	want := [][]string{a, b}

	// Any interleaving that keeps each shard's order passes.
	ok := []string{a[0], b[0], b[1], a[1], a[2], b[2], a[3], b[3], a[4]}
	if d := Compare(want, ok); d.Failed() != 0 || d.Expected != 9 {
		t.Fatalf("valid interleaving: %+v", d)
	}
	// Swapping two matches of shard a is seen although shard b is intact.
	bad := []string{a[0], b[0], b[1], a[1], a[3], b[2], a[2], b[3], a[4]}
	if d := Compare(want, bad); d.Reordered != 1 || d.Missing != 0 || d.Extra != 0 {
		t.Fatalf("reordered within a shard: %+v", d)
	}
	// A shared key delivered once too few is missing, once too many extra.
	if d := Compare(want, ok[1:]); d.Missing != 1 {
		t.Fatalf("shared key dropped: %+v", d)
	}
	if d := Compare(want, append([]string{a[0]}, ok...)); d.Extra != 1 {
		t.Fatalf("shared key duplicated: %+v", d)
	}
}

func TestDetectLagAttribution(t *testing.T) {
	// Ten events, one due every 10 ms. Windows: w0 = [0,4), w1 = [2,6),
	// w2 = [5,12) — the stream ends inside w2.
	due := make([]float64, 10)
	for i := range due {
		due[i] = float64(i) * 10
	}
	windows := []Window{{0, 4}, {2, 6}, {5, 12}}
	matches := []struct{ win, det uint64 }{
		{0, 3}, // first window: anchored at its own completing event
		{1, 2}, // completed at 2, but w0 ends with event 3: waits for 3
		{1, 5}, // completed after w0 ended: anchored at 5
		{2, 9}, // w1 ended at event 5, completion at 9 is later
		{2, 6}, // never delivered
	}
	anchors := make([]uint64, len(matches))
	for i, m := range matches {
		anchors[i] = Anchor(windows, m.win, m.det, uint64(len(due)))
	}
	wantAnchors := []uint64{3, 3, 5, 9, 6}
	for i := range wantAnchors {
		if anchors[i] != wantAnchors[i] {
			t.Fatalf("anchor[%d] = %d, want %d", i, anchors[i], wantAnchors[i])
		}
	}
	seen := []float64{31, 36, 58, 95, -1}
	lags := Lags(due, anchors, seen)
	want := []float64{1, 6, 8, 5, math.Inf(1)}
	for i := range want {
		if lags[i] != want[i] {
			t.Errorf("lag[%d] = %v, want %v", i, lags[i], want[i])
		}
	}
	// A window the stream ended inside is clipped to the stream.
	if a := Anchor([]Window{{0, 50}, {1, 60}}, 1, 2, 10); a != 9 {
		t.Errorf("anchor behind an open window = %d, want 9", a)
	}
}

package main

import (
	"math"
	"math/rand"
	"time"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/event"
)

// Shares of rising and falling quotes in an ordinary minute, and in every
// richEvery-th minute, which has more risers.
//
// q1_heavy needs 640 rising quotes among the 1999 that follow a rising
// leader. An ordinary run of four minutes holds 4*157 = 628, so a window
// completes only when it spans a rich minute: about one window in a
// hundred, the low-completion regime on the right of the paper's
// Fig. 10(a).
const (
	riseShare  = 0.314
	fallShare  = 0.314
	richShare  = 0.355
	richEvery  = 10
	priceSigma = 0.35
)

// quoteStream generates n quotes in the schema and symbol naming of
// dataset.NYSE: minute by minute, every symbol once a minute, leaders
// first, prices following a per-symbol walk.
//
// It differs from dataset.NYSE in one way that matters to a benchmark:
// how many quotes rise and fall in a minute is fixed, among the leaders
// and among the rest, and the richer minutes come on a fixed schedule.
// The seed decides which symbols move and by how much, never how many.
// dataset.NYSE lets a random market regime decide how many, so two seeds
// give streams whose window count — and with it every throughput figure —
// differs by a factor of two; no metric could hold a 10 % bound across
// seeds on it.
func quoteStream(reg *event.Registry, seed int64, n, symbols, leaders int) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	openIdx, closeIdx := dataset.Fields(reg)
	nf := max(openIdx, closeIdx) + 1
	types := make([]event.Type, symbols)
	price := make([]float64, symbols)
	for i := range types {
		name := dataset.LeaderSymbol(i)
		if i >= leaders {
			name = dataset.Symbol(i - leaders)
		}
		types[i] = reg.TypeID(name)
	}
	// Opening prices are the evenly spaced quantiles of a log-normal
	// around 100, dealt out by the seed: the same set of prices for every
	// seed, among the leaders and among the rest. Queries that compare
	// prices (Q2's band, tcp_paced's "closes higher than the leader")
	// cost more or less depending on where the prices lie.
	deal := func(group []float64) {
		for i, j := range rng.Perm(len(group)) {
			p := (float64(i) + 0.5) / float64(len(group))
			group[j] = 100 * math.Exp(priceSigma*math.Sqrt2*math.Erfinv(2*p-1))
		}
	}
	deal(price[:leaders])
	deal(price[leaders:])

	move := make([]int8, symbols)
	// assign marks exactly rise quotes of the group as rising and fall as
	// falling, chosen uniformly.
	assign := func(group []int8, rise, fall int) {
		for i, j := range rng.Perm(len(group)) {
			switch {
			case i < rise:
				group[j] = 1
			case i < rise+fall:
				group[j] = -1
			default:
				group[j] = 0
			}
		}
	}
	count := func(size int, share float64) int { return int(math.Round(float64(size) * share)) }

	events := make([]event.Event, 0, n)
	fields := make([]float64, 0, n*nf) // one backing array for every event's payload
	start := time.Date(2017, 12, 11, 9, 30, 0, 0, time.UTC).UnixNano()
	for m := 0; len(events) < n; m++ {
		rise := riseShare
		if m%richEvery == richEvery-1 {
			rise = richShare
		}
		assign(move[:leaders], count(leaders, riseShare), count(leaders, fallShare))
		assign(move[leaders:], count(symbols-leaders, rise), count(symbols-leaders, fallShare))
		ts := start + int64(m)*int64(time.Minute)
		for s := 0; s < symbols && len(events) < n; s++ {
			open := price[s]
			step := 0.0005 + rng.Float64()*0.004
			price[s] = open * (1 + float64(move[s])*step)
			fields = fields[:len(fields)+nf]
			f := fields[len(fields)-nf:]
			f[openIdx], f[closeIdx] = open, price[s]
			events = append(events, event.Event{TS: ts, Type: types[s], Fields: f[:nf:nf]})
		}
	}
	return events
}

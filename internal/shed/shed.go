// Package shed implements utility-driven load shedding for the SPECTRE
// runtime's admission (DESIGN.md §10): when a shard's unread tail — the
// kept events admitted to its arena that its splitter has not read —
// crosses a watermark, the events least likely to contribute to a match
// are dropped first, probabilistically, in the style of eSPICE — instead
// of blocking Feed or failing TryFeed.
//
// The per-event utility estimate combines two signals the engine already
// has:
//
//   - a static prior from the query plan (internal/plan): the product of
//     the observed EWMA pass rates of the conjuncts of the most permissive
//     step whose type filter accepts the event's type — an event that must
//     clear selective predicates to matter is worth less than one that is
//     accepted outright;
//   - the type's observed contribution to emitted matches: an EWMA of
//     constituent appearances per kept event of that type, fed back from
//     the root-emission path. The ratio is over *kept* events, not offered
//     ones, so a heavily shed type whose survivors keep matching retains
//     its utility and can recover (no shed death spiral).
//
// The drop decision is rank-based: the shedder maintains a decayed
// histogram of recently offered utilities and drops an event when its
// utility rank falls below the shed fraction — 0 at the low watermark,
// ramping linearly to 1 at the high watermark. Above the high watermark
// everything is dropped, which bounds the tail strictly below its
// capacity: a producer can always make progress, and the blocking Feed
// path never waits on a saturated tail. Ties within a histogram bucket
// break uniformly at random.
//
// Shedding never reorders kept events: the decision is made at admission
// time, in stream order, before the event is stamped and appended, so the
// kept subsequence reaches the splitter in the original relative order
// and the §4.2 validation gate continues to guarantee exact-sequential
// output for the events that were admitted.
package shed

import (
	"math"
	"sync/atomic"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/stats"
)

const (
	// defaultLowFrac / defaultHighFrac place the shedding watermarks as
	// fractions of the tail's capacity: below low nothing is shed, above
	// high everything is.
	defaultLowFrac  = 0.5
	defaultHighFrac = 0.9
	// refreshEvery is the offer period between utility-table refreshes
	// (fold contribution counters, re-query plan priors, decay the rank
	// histogram). Power of two.
	refreshEvery = 1024
	// contribAlpha smooths the per-type contribution ratio across
	// refresh periods.
	contribAlpha = 0.2
	// priorWeight blends the plan prior with the observed contribution
	// once the latter is seeded.
	priorWeight = 0.3
	// minKept is the least kept events of a type in one refresh period
	// before its contribution ratio is considered a real observation.
	minKept = 8
	// histBuckets quantizes utilities for the rank estimate.
	histBuckets = 32
	// histDecay ages the rank histogram each refresh so the utility
	// distribution tracks the recent stream, not the whole run.
	histDecay = 0.5
)

// Config parameterizes a Shedder.
type Config struct {
	// QueueCap is the capacity of the shard's unread tail the watermarks
	// are relative to. Required (> 0).
	QueueCap int
	// LowFrac / HighFrac override the watermark fractions of QueueCap
	// (defaults 0.5 and 0.9). 0 < low < high <= 1.
	LowFrac, HighFrac float64
	// Prior scores a type's static match-participation likelihood in
	// [0, 1] from query-plan knowledge. Nil uses a neutral 0.5 — the
	// estimator then learns from contribution feedback alone.
	Prior func(event.Type) float64
	// Seed seeds the drop-decision PRNG; 0 selects a fixed default, so
	// runs are reproducible unless the caller randomizes.
	Seed uint64
}

// typeStat is the cross-goroutine slice of one type's state: the match
// feedback arrives from the emission path (splitter goroutines) while
// everything else is owned by the single producer.
type typeStat struct {
	matched atomic.Uint64 // constituent appearances in emitted matches
}

// Shedder decides, per offered event, whether it is admitted to the
// shard's arena or shed. Offer is single-producer (the Handle feed
// discipline); NoteMatch may be called concurrently from the emission
// path.
type Shedder struct {
	low, high int
	prior     func(event.Type) float64

	// tab is indexed by event type and grown copy-on-write so NoteMatch
	// can run concurrently with growth.
	tab atomic.Pointer[[]*typeStat]

	// Producer-owned state (no synchronization needed).
	utility []float64    // current per-type utility estimate
	priors  []float64    // cached plan priors
	contrib []stats.EWMA // observed contribution per kept event
	kept    []uint64     // kept this refresh period, per type
	offers  uint64
	rng     uint64

	hist     [histBuckets]float64 // decayed utility histogram of offers
	histMass float64

	keptTotal atomic.Uint64
	shedTotal atomic.Uint64
}

// New builds a Shedder. QueueCap must be positive; watermark fractions
// outside (0, 1] fall back to the defaults.
func New(cfg Config) *Shedder {
	lowFrac, highFrac := cfg.LowFrac, cfg.HighFrac
	if lowFrac <= 0 || lowFrac >= 1 {
		lowFrac = defaultLowFrac
	}
	if highFrac <= lowFrac || highFrac > 1 {
		highFrac = defaultHighFrac
	}
	low := int(lowFrac * float64(cfg.QueueCap))
	high := int(highFrac * float64(cfg.QueueCap))
	if high <= low {
		high = low + 1
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	s := &Shedder{low: low, high: high, prior: cfg.Prior, rng: seed}
	empty := make([]*typeStat, 0)
	s.tab.Store(&empty)
	return s
}

// Offer decides whether an event of type t may enter a shard whose
// unread tail holds depth events. true admits, false sheds. Single
// producer only.
func (s *Shedder) Offer(t event.Type, depth int) bool {
	s.offers++
	if s.offers&(refreshEvery-1) == 0 {
		s.refresh()
	}
	s.ensure(t)
	u := s.utility[t]
	b := bucketOf(u)
	s.hist[b]++
	s.histMass++

	if depth <= s.low {
		s.note(t, true)
		return true
	}
	frac := 1.0
	if depth < s.high {
		frac = float64(depth-s.low) / float64(s.high-s.low)
	}
	// Rank of u among recently offered utilities, with uniform
	// tie-breaking inside the bucket: identical utilities shed uniformly
	// at random at rate frac.
	below := 0.0
	for i := 0; i < b; i++ {
		below += s.hist[i]
	}
	rank := (below + s.rand01()*s.hist[b]) / s.histMass
	keep := rank >= frac
	s.note(t, keep)
	return keep
}

// NoteMatch records that an event of type t was a constituent of an
// emitted complex event. Safe for concurrent use with Offer and itself.
func (s *Shedder) NoteMatch(t event.Type) {
	tab := *s.tab.Load()
	if int(t) < len(tab) {
		tab[t].matched.Add(1)
	}
}

// Utility returns the current utility estimate for t (producer side;
// tests and debugging).
func (s *Shedder) Utility(t event.Type) float64 {
	if int(t) < len(s.utility) {
		return s.utility[t]
	}
	return 0
}

// Kept and Shed return the cumulative admission counters.
func (s *Shedder) Kept() uint64 { return s.keptTotal.Load() }
func (s *Shedder) Shed() uint64 { return s.shedTotal.Load() }

func (s *Shedder) note(t event.Type, keep bool) {
	if keep {
		s.kept[t]++
		s.keptTotal.Add(1)
	} else {
		s.shedTotal.Add(1)
	}
}

// ensure grows the per-type state to cover t and seeds its utility from
// the prior.
func (s *Shedder) ensure(t event.Type) {
	n := int(t) + 1
	if n <= len(s.utility) {
		return
	}
	old := *s.tab.Load()
	tab := make([]*typeStat, n)
	copy(tab, old)
	for i := len(old); i < n; i++ {
		tab[i] = &typeStat{}
	}
	s.tab.Store(&tab)

	grow := n - len(s.utility)
	s.utility = append(s.utility, make([]float64, grow)...)
	s.priors = append(s.priors, make([]float64, grow)...)
	s.contrib = append(s.contrib, make([]stats.EWMA, grow)...)
	s.kept = append(s.kept, make([]uint64, grow)...)
	for i := n - grow; i < n; i++ {
		s.priors[i] = s.priorOf(event.Type(i))
		s.contrib[i].Alpha = contribAlpha
		s.utility[i] = s.score(event.Type(i))
	}
}

func (s *Shedder) priorOf(t event.Type) float64 {
	if s.prior == nil {
		return 0.5
	}
	return clamp01(s.prior(t))
}

// score computes the published utility of t from the cached prior and
// the contribution EWMA.
func (s *Shedder) score(t event.Type) float64 {
	p := s.priors[t]
	if !s.contrib[t].Seeded() {
		return p
	}
	return clamp01(priorWeight*p + (1-priorWeight)*s.contrib[t].Value())
}

// refresh folds the period's match-contribution counters into the
// per-type EWMAs, re-queries the plan priors (their conjunct pass rates
// move with live traffic), republishes utilities and ages the rank
// histogram.
func (s *Shedder) refresh() {
	tab := *s.tab.Load()
	for i := range s.utility {
		matched := tab[i].matched.Swap(0)
		kept := s.kept[i]
		s.kept[i] = 0
		if kept >= minKept {
			s.contrib[i].Observe(clamp01(float64(matched) / float64(kept)))
		}
		s.priors[i] = s.priorOf(event.Type(i))
		s.utility[i] = s.score(event.Type(i))
	}
	for i := range s.hist {
		s.hist[i] *= histDecay
	}
	s.histMass *= histDecay
}

// rand01 is a xorshift64* step mapped to [0, 1).
func (s *Shedder) rand01() float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return float64(s.rng>>11) / (1 << 53)
}

func bucketOf(u float64) int {
	b := int(u * histBuckets)
	if b < 0 {
		return 0
	}
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

func clamp01(v float64) float64 {
	if math.IsNaN(v) || v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Package dataset generates the two evaluation workloads of the paper
// (§4.1) as deterministic synthetic equivalents (see DESIGN.md §4.5 for
// the substitution rationale):
//
//   - NYSE: an intra-day stock-quote stream — ~3000 symbols (the first
//     Leaders of which are the "technology blue chip" leading symbols of
//     Q1), one quote per symbol per minute, open/close prices following a
//     regime-switching random walk. The regime process makes windows
//     heterogeneous in their rising/falling fraction, which is what gives
//     long patterns (large q) a small-but-nonzero completion probability —
//     the property Figures 10(a)/(d) sweep.
//
//   - RAND: a uniform random sequence over a small symbol alphabet
//     (300 symbols in the paper), used by Q3.
//
// All generation is deterministic in the seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/spectrecep/spectre/internal/event"
)

// Field names of quote events; intern them through Fields.
const (
	FieldOpen  = "open"
	FieldClose = "close"
)

// Fields interns the quote payload schema and returns the indices of
// (open, close).
func Fields(reg *event.Registry) (openIdx, closeIdx int) {
	return reg.FieldIndex(FieldOpen), reg.FieldIndex(FieldClose)
}

// LeaderSymbol returns the name of the i-th leading (blue-chip) symbol.
func LeaderSymbol(i int) string { return fmt.Sprintf("BLUE%02d", i) }

// Symbol returns the name of the i-th ordinary symbol.
func Symbol(i int) string { return fmt.Sprintf("S%04d", i) }

// NYSEConfig parameterizes the synthetic NYSE stream.
type NYSEConfig struct {
	// Symbols is the total number of stock symbols (paper: ~3000).
	Symbols int
	// Leaders is the number of leading blue-chip symbols among them
	// (paper: 16). Leaders come first in each minute.
	Leaders int
	// Minutes is the stream length in minutes; every symbol quotes once
	// per minute (paper resolution), so the stream has Symbols×Minutes
	// events.
	Minutes int
	// Seed makes generation deterministic.
	Seed int64
	// FlatProb is the probability that a quote is unchanged
	// (close == open) outside of regime effects; intra-day minute quotes
	// are mostly flat. Default 0.55.
	FlatProb float64
	// RegimeVol controls how fast the market regime (the rising-quote
	// fraction) wanders. Default 0.05.
	RegimeVol float64
}

func (c *NYSEConfig) setDefaults() {
	if c.Symbols <= 0 {
		c.Symbols = 3000
	}
	if c.Leaders <= 0 {
		c.Leaders = 16
	}
	if c.Leaders > c.Symbols {
		c.Leaders = c.Symbols
	}
	if c.Minutes <= 0 {
		c.Minutes = 60
	}
	if c.FlatProb <= 0 || c.FlatProb >= 1 {
		c.FlatProb = 0.55
	}
	if c.RegimeVol <= 0 {
		c.RegimeVol = 0.05
	}
}

// NYSE generates the synthetic quote stream. Event order: minute by
// minute; within a minute the leaders quote first, then the ordinary
// symbols (a fixed interleaving; the paper's stream is likewise a
// round-robin of per-symbol minute quotes).
func NYSE(reg *event.Registry, cfg NYSEConfig) []event.Event {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	openIdx, closeIdx := Fields(reg)
	nf := 2
	if closeIdx > openIdx && closeIdx+1 > nf {
		nf = closeIdx + 1
	}
	if openIdx+1 > nf {
		nf = openIdx + 1
	}

	types := make([]event.Type, cfg.Symbols)
	price := make([]float64, cfg.Symbols)
	for i := 0; i < cfg.Symbols; i++ {
		var name string
		if i < cfg.Leaders {
			name = LeaderSymbol(i)
		} else {
			name = Symbol(i - cfg.Leaders)
		}
		types[i] = reg.TypeID(name)
		// Log-normal-ish initial prices around 100.
		price[i] = 100 * math.Exp(rng.NormFloat64()*0.35)
	}

	events := make([]event.Event, 0, cfg.Symbols*cfg.Minutes)
	start := time.Date(2017, 12, 11, 9, 30, 0, 0, time.UTC).UnixNano()
	// regime ∈ [-1, 1]: >0 means rising quotes dominate the non-flat
	// fraction; a bounded random walk with occasional jumps.
	regime := 0.0
	for m := 0; m < cfg.Minutes; m++ {
		regime += rng.NormFloat64() * cfg.RegimeVol
		if rng.Float64() < 0.01 {
			regime += rng.NormFloat64() * 0.5 // regime jump
		}
		if regime > 1 {
			regime = 1
		} else if regime < -1 {
			regime = -1
		}
		ts := start + int64(m)*int64(time.Minute)
		riseProb := (1 - cfg.FlatProb) * (0.5 + 0.5*regime)
		fallProb := (1 - cfg.FlatProb) - riseProb
		for s := 0; s < cfg.Symbols; s++ {
			open := price[s]
			var close float64
			u := rng.Float64()
			switch {
			case u < riseProb:
				close = open * (1 + 0.0005 + rng.Float64()*0.004)
			case u < riseProb+fallProb:
				close = open * (1 - 0.0005 - rng.Float64()*0.004)
			default:
				close = open
			}
			price[s] = close
			fields := make([]float64, nf)
			fields[openIdx] = open
			fields[closeIdx] = close
			events = append(events, event.Event{TS: ts, Type: types[s], Fields: fields})
		}
	}
	return events
}

// RandConfig parameterizes the RAND dataset.
type RandConfig struct {
	// Symbols is the alphabet size (paper: 300).
	Symbols int
	// Events is the stream length (paper: 3 million).
	Events int
	// Seed makes generation deterministic.
	Seed int64
}

func (c *RandConfig) setDefaults() {
	if c.Symbols <= 0 {
		c.Symbols = 300
	}
	if c.Events <= 0 {
		c.Events = 100000
	}
}

// Rand generates the RAND dataset: each event's symbol is uniform over the
// alphabet (paper §4.1: "the probability of each stock symbol is equally
// distributed"). Prices follow an unbiased ±/flat walk so price-based
// queries remain applicable.
func Rand(reg *event.Registry, cfg RandConfig) []event.Event {
	cfg.setDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	openIdx, closeIdx := Fields(reg)
	nf := max(openIdx, closeIdx) + 1

	types := make([]event.Type, cfg.Symbols)
	price := make([]float64, cfg.Symbols)
	for i := 0; i < cfg.Symbols; i++ {
		types[i] = reg.TypeID(Symbol(i))
		price[i] = 100 * math.Exp(rng.NormFloat64()*0.35)
	}
	events := make([]event.Event, 0, cfg.Events)
	start := time.Date(2017, 12, 11, 9, 30, 0, 0, time.UTC).UnixNano()
	for i := 0; i < cfg.Events; i++ {
		s := rng.Intn(cfg.Symbols)
		open := price[s]
		var close float64
		switch rng.Intn(3) {
		case 0:
			close = open * (1 + 0.001 + rng.Float64()*0.004)
		case 1:
			close = open * (1 - 0.001 - rng.Float64()*0.004)
		default:
			close = open
		}
		price[s] = close
		fields := make([]float64, nf)
		fields[openIdx] = open
		fields[closeIdx] = close
		// One event per second keeps time-scoped queries usable.
		events = append(events, event.Event{TS: start + int64(i)*int64(time.Second), Type: types[s], Fields: fields})
	}
	return events
}

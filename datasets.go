package spectre

import (
	"io"

	"github.com/spectrecep/spectre/internal/dataset"
	"github.com/spectrecep/spectre/internal/stream"
)

// Dataset configurations, re-exported so users can regenerate the paper's
// workloads (see DESIGN.md §4.5 for how the synthetic streams substitute
// the proprietary NYSE data).
type (
	// NYSEConfig parameterizes the synthetic NYSE quote stream.
	NYSEConfig = dataset.NYSEConfig
	// RandConfig parameterizes the uniform random symbol stream.
	RandConfig = dataset.RandConfig
)

// GenerateNYSE generates the synthetic NYSE-like intra-day quote stream
// (paper §4.1): per-minute open/close quotes for cfg.Symbols symbols, the
// first cfg.Leaders of which are the blue-chip leaders of query Q1.
func GenerateNYSE(reg *Registry, cfg NYSEConfig) []Event {
	return dataset.NYSE(reg, cfg)
}

// GenerateRand generates the RAND dataset (paper §4.1): uniformly random
// symbols over a small alphabet.
func GenerateRand(reg *Registry, cfg RandConfig) []Event {
	return dataset.Rand(reg, cfg)
}

// LeaderSymbol returns the name of the i-th blue-chip leader symbol used
// by the NYSE generator and query Q1.
func LeaderSymbol(i int) string { return dataset.LeaderSymbol(i) }

// Symbol returns the name of the i-th ordinary symbol used by the
// generators.
func Symbol(i int) string { return dataset.Symbol(i) }

// WriteEvents encodes events in the repository's text format (one event
// per line: timestamp, type, fields).
func WriteEvents(w io.Writer, reg *Registry, events []Event) error {
	return stream.WriteEvents(w, reg, events)
}

// ReadEvents decodes the text format produced by WriteEvents.
func ReadEvents(r io.Reader, reg *Registry) ([]Event, error) {
	return stream.ReadEvents(r, reg)
}

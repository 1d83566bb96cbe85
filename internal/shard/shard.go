// Package shard implements key-based stream partitioning for the
// multi-query SPECTRE runtime: a key extractor per partition spec and a
// hash router that maps every event to one of n shards. Partition-level
// data parallelism composes with SPECTRE's window-level speculation
// because consumption dependencies never cross partition keys.
package shard

import (
	"fmt"
	"math"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

// Key extracts the partition key of an event as a raw 64-bit value: its
// interned type, or the bit pattern of one payload field. The router
// finalizes it with a mixing hash, so keys may be low-entropy values
// (small integers, float bit patterns). It is a value, not a func, so
// routing reads the event in place: an event routed from the caller's
// stack stays there.
type Key struct {
	byType bool
	field  int
}

// ByType keys on the interned event type (e.g. the stock symbol).
func ByType() Key { return Key{byType: true} }

// ByField keys on the bit pattern of the idx-th payload field.
func ByField(idx int) Key { return Key{field: idx} }

// Of returns ev's raw partition key.
func (k Key) Of(ev *event.Event) uint64 {
	if k.byType {
		return uint64(ev.Type)
	}
	return math.Float64bits(ev.Field(k.field))
}

// FromSpec builds the key extractor for a partition spec. Field-based
// specs must be resolved (Field >= 0); use event.Registry.FieldIndex to
// resolve FieldName first.
func FromSpec(spec *pattern.PartitionSpec) (Key, error) {
	if spec == nil {
		return Key{}, fmt.Errorf("shard: nil partition spec")
	}
	if spec.ByType {
		return ByType(), nil
	}
	if spec.Field < 0 {
		return Key{}, fmt.Errorf("shard: unresolved partition field %q", spec.FieldName)
	}
	return ByField(spec.Field), nil
}

// mix64 is the splitmix64 finalizer: a fast bijective mixer that spreads
// low-entropy keys (dense type ids, float bit patterns) uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Router routes events onto n shards by hashed key.
type Router struct {
	n   int
	key Key
}

// NewRouter builds a router over n shards; n < 1 is clamped to 1.
func NewRouter(n int, key Key) *Router {
	if n < 1 {
		n = 1
	}
	return &Router{n: n, key: key}
}

// Shards returns the shard count.
func (r *Router) Shards() int { return r.n }

// Route returns the shard index of ev: hash(key) % shards.
func (r *Router) Route(ev *event.Event) int {
	if r.n == 1 {
		return 0
	}
	return int(mix64(r.key.Of(ev)) % uint64(r.n))
}

// Split partitions events into per-shard substreams in stream order. It
// is the reference partitioning used by tests and benchmarks to cross-
// check a sharded run against standalone per-partition runs.
func (r *Router) Split(events []event.Event) [][]event.Event {
	out := make([][]event.Event, r.n)
	for i := range events {
		s := r.Route(&events[i])
		out[s] = append(out[s], events[i])
	}
	return out
}

package shard

import (
	"testing"

	"github.com/spectrecep/spectre/internal/event"
	"github.com/spectrecep/spectre/internal/pattern"
)

func TestRouterDeterministicAndInRange(t *testing.T) {
	r := NewRouter(8, ByType())
	for ty := 1; ty <= 100; ty++ {
		ev := &event.Event{Type: event.Type(ty)}
		s1 := r.Route(ev)
		s2 := r.Route(ev)
		if s1 != s2 {
			t.Fatalf("type %d routed to %d then %d", ty, s1, s2)
		}
		if s1 < 0 || s1 >= 8 {
			t.Fatalf("type %d routed out of range: %d", ty, s1)
		}
	}
}

func TestRouterSpreadsKeys(t *testing.T) {
	// Dense type ids must not all collapse onto few shards.
	r := NewRouter(8, ByType())
	hit := make(map[int]int)
	for ty := 1; ty <= 256; ty++ {
		hit[r.Route(&event.Event{Type: event.Type(ty)})]++
	}
	if len(hit) != 8 {
		t.Fatalf("256 keys hit only %d of 8 shards", len(hit))
	}
	for s, n := range hit {
		if n > 3*256/8 {
			t.Fatalf("shard %d got %d of 256 keys (badly skewed)", s, n)
		}
	}
}

func TestByFieldRouting(t *testing.T) {
	r := NewRouter(4, ByField(1))
	a := &event.Event{Fields: []float64{0, 42}}
	b := &event.Event{Fields: []float64{99, 42}}
	if r.Route(a) != r.Route(b) {
		t.Fatal("same key field must route to the same shard")
	}
}

func TestSingleShardShortCircuit(t *testing.T) {
	r := NewRouter(1, ByType())
	if got := r.Route(&event.Event{Type: 7}); got != 0 {
		t.Fatalf("single-shard router returned %d", got)
	}
	if NewRouter(0, ByType()).Shards() != 1 {
		t.Fatal("shard count must clamp to 1")
	}
}

func TestSplitPreservesOrderAndTotal(t *testing.T) {
	events := make([]event.Event, 100)
	for i := range events {
		events[i] = event.Event{Seq: uint64(i), Type: event.Type(1 + i%7)}
	}
	r := NewRouter(3, ByType())
	buckets := r.Split(events)
	total := 0
	for s, bucket := range buckets {
		total += len(bucket)
		for i := 1; i < len(bucket); i++ {
			if bucket[i].Seq <= bucket[i-1].Seq {
				t.Fatalf("shard %d bucket out of stream order", s)
			}
		}
		for i := range bucket {
			if got := r.Route(&bucket[i]); got != s {
				t.Fatalf("event in bucket %d routes to %d", s, got)
			}
		}
	}
	if total != len(events) {
		t.Fatalf("split lost events: %d of %d", total, len(events))
	}
}

func TestFromSpec(t *testing.T) {
	if _, err := FromSpec(nil); err == nil {
		t.Fatal("nil spec must fail")
	}
	if _, err := FromSpec(&pattern.PartitionSpec{Field: -1, FieldName: "price"}); err == nil {
		t.Fatal("unresolved field must fail")
	}
	key, err := FromSpec(&pattern.PartitionSpec{ByType: true, Field: -1})
	if err != nil {
		t.Fatal(err)
	}
	if key.Of(&event.Event{Type: 9}) != 9 {
		t.Fatal("ByType key must be the type id")
	}
	key, err = FromSpec(&pattern.PartitionSpec{Field: 0})
	if err != nil {
		t.Fatal(err)
	}
	if key.Of(&event.Event{Fields: []float64{1.5}}) == key.Of(&event.Event{Fields: []float64{2.5}}) {
		t.Fatal("distinct field values must produce distinct keys")
	}
}

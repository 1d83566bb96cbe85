package deptree

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCGPublishConcurrent races four readers against the single writer
// of a group: the writer appends 5 000 seqs, some out of order and some
// duplicated, and publishes every 1–7 appends. A reader must only ever
// see a strictly ascending set whose version is its size, that never
// shrinks, and that keeps every event an earlier snapshot held.
func TestCGPublishConcurrent(t *testing.T) {
	for round := int64(0); round < 4; round++ {
		rng := rand.New(rand.NewSource(round))
		cg := NewCG(1, nil, 0, 5)
		var done atomic.Bool
		var wg sync.WaitGroup
		fail := make(chan string, 4)
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var prev []uint64 // reader-owned copy of the last new snapshot
				for stop := false; !stop; {
					stop = done.Load()
					s := cg.Snapshot()
					if s.Version != uint64(len(s.Seqs)) {
						fail <- "version is not the set size"
						return
					}
					if s.Version < uint64(len(prev)) {
						fail <- "version decreased"
						return
					}
					if len(prev) > 0 && !cg.Contains(prev[len(prev)-1]) {
						fail <- "a published seq left the group"
						return
					}
					if s.Version == uint64(len(prev)) {
						continue
					}
					for i := 1; i < len(s.Seqs); i++ {
						if s.Seqs[i-1] >= s.Seqs[i] {
							fail <- "seqs not strictly ascending"
							return
						}
					}
					for _, q := range prev {
						if _, ok := slices.BinarySearch(s.Seqs, q); !ok {
							fail <- "a later snapshot lost an earlier seq"
							return
						}
					}
					prev = append(prev[:0], s.Seqs...)
				}
			}()
		}

		want := map[uint64]bool{}
		var top uint64
		for i, nextPub := 0, 1; i < 5000; i++ {
			var seq uint64
			switch r := rng.Intn(100); {
			case r < 5 && top > 0: // out of order: an odd seq below the tail
				seq = uint64(rng.Int63n(int64(top)) | 1)
			case r < 8 && top > 0: // duplicate
				seq = top
			default:
				top += 2
				seq = top
			}
			cg.Append(seq)
			want[seq] = true
			if i == nextPub {
				cg.Publish()
				nextPub += 1 + rng.Intn(7)
			}
		}
		cg.Publish()
		done.Store(true)
		wg.Wait()
		close(fail)
		for msg := range fail {
			t.Fatalf("round %d: %s", round, msg)
		}
		got := cg.Snapshot().Seqs
		if len(got) != len(want) {
			t.Fatalf("round %d: final set has %d seqs, want %d", round, len(got), len(want))
		}
		for _, q := range got {
			if !want[q] {
				t.Fatalf("round %d: final set holds %d, never appended", round, q)
			}
		}
	}
}

var sinkSnap CGSnapshot

// TestCGPublishAllocs guards publication: reading a group allocates
// nothing, a group of up to four events allocates only the group and its
// first backing, and one that grows in order to 1 000 events allocates
// about log₂ backings, not one per publication.
func TestCGPublishAllocs(t *testing.T) {
	cg := NewCG(1, nil, 0, 5)
	for i := range 100 {
		cg.Add(uint64(2 * i))
	}
	if a := testing.AllocsPerRun(100, func() {
		sinkSnap = cg.Snapshot()
		if !cg.Contains(42) || cg.Contains(43) {
			t.Fatal("wrong membership")
		}
	}); a != 0 {
		t.Fatalf("Snapshot+Contains: %v allocs, want 0", a)
	}

	if a := testing.AllocsPerRun(100, func() {
		cg := NewCG(1, nil, 0, 5)
		for i := range 4 {
			cg.Add(uint64(i))
		}
	}); a > 3 {
		t.Fatalf("a group of 4 events: %v allocs, want ≤ 3 (the group and its first backing)", a)
	}

	backings := 0
	var last *cgSet
	a := testing.AllocsPerRun(10, func() {
		cg := NewCG(1, nil, 0, 5)
		backings = 0
		for i := range 1000 {
			cg.Append(uint64(i))
			cg.Publish()
			if b := cg.set.Load(); b != last {
				backings++
				last = b
			}
		}
	})
	if backings > 10 {
		t.Fatalf("1000 in-order appends used %d backings, want ≤ 10", backings)
	}
	if a > float64(1+2*backings) {
		t.Fatalf("1000 in-order appends: %v allocs for %d backings, want ≤ %d", a, backings, 1+2*backings)
	}
}

package deptree

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"github.com/spectrecep/spectre/internal/window"
)

// harness builds a tree with a deterministic version factory.
type harness struct {
	tree    *Tree
	nextVer uint64
	nextWin uint64
	nextCG  uint64
	dropped []*WindowVersion
}

func newHarness() *harness {
	h := &harness{}
	h.tree = NewTree(func(win *window.Window, suppressed []*CG) *WindowVersion {
		h.nextVer++
		wv := NewWindowVersion(h.nextVer, win, suppressed)
		wv.SetPos(win.StartSeq)
		return wv
	})
	h.tree.OnDrop = func(wv *WindowVersion) { h.dropped = append(h.dropped, wv) }
	return h
}

func (h *harness) window(start, end uint64) *window.Window {
	w := window.NewWindow(h.nextWin, start, 0)
	h.nextWin++
	w.SetEndSeq(end)
	return w
}

func (h *harness) cg(owner *WindowVersion) *CG {
	h.nextCG++
	cg := NewCG(h.nextCG, owner, 0, 3)
	return cg
}

func TestNewWindowChain(t *testing.T) {
	h := newHarness()
	w1 := h.tree.NewWindow(h.window(0, 100))
	if len(w1) != 1 || h.tree.Root() == nil || h.tree.Root().WV != w1[0] {
		t.Fatal("first window must become the root version")
	}
	w2 := h.tree.NewWindow(h.window(50, 150))
	if len(w2) != 1 {
		t.Fatalf("second window created %d versions, want 1", len(w2))
	}
	if h.tree.Root().Child() == nil || h.tree.Root().Child().WV != w2[0] {
		t.Fatal("second window must chain below the root")
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
	if h.tree.Size() != 2 {
		t.Fatalf("size = %d, want 2", h.tree.Size())
	}
}

func TestCGCreatedBranchesDependents(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	dep := h.tree.NewWindow(h.window(50, 150))[0]

	cg := h.cg(root)
	created := h.tree.CGCreated(cg)
	if len(created) != 1 {
		t.Fatalf("completion-edge copies = %d, want 1", len(created))
	}
	copyWV := created[0]
	if copyWV.Win != dep.Win {
		t.Fatal("the copy must be a version of the dependent window")
	}
	if len(copyWV.Suppressed) != 1 || copyWV.Suppressed[0] != cg {
		t.Fatal("the copy must suppress the new group")
	}
	if len(dep.Suppressed) != 0 {
		t.Fatal("the original version must stay unsuppressed (abandon edge)")
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
	// Root's child must now be the CG vertex with both edges populated.
	cgNode := h.tree.Root().Child()
	if cgNode.IsWV() {
		t.Fatal("root's child must be the CG vertex")
	}
	if cgNode.Edge(AbandonEdge) == nil || cgNode.Edge(CompletionEdge) == nil {
		t.Fatal("both edges must be populated")
	}

	// New windows attach under both edges.
	created2 := h.tree.NewWindow(h.window(120, 220))
	if len(created2) != 2 {
		t.Fatalf("new window created %d versions, want 2 (one per leaf path)", len(created2))
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCGResolvedCompletedDropsAbandonSide(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	dep := h.tree.NewWindow(h.window(50, 150))[0]
	cg := h.cg(root)
	copies := h.tree.CGCreated(cg)

	cg.Resolve(CGCompleted)
	h.tree.CGResolved(cg)
	if !dep.Dropped() {
		t.Fatal("abandon-side version must be dropped on completion")
	}
	if copies[0].Dropped() {
		t.Fatal("completion-side version must survive")
	}
	if got := h.tree.Root().Child(); got == nil || got.WV != copies[0] {
		t.Fatal("surviving version must splice to the root")
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCGResolvedAbandonedDropsCompletionSide(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	dep := h.tree.NewWindow(h.window(50, 150))[0]
	cg := h.cg(root)
	copies := h.tree.CGCreated(cg)

	cg.Resolve(CGAbandoned)
	h.tree.CGResolved(cg)
	if dep.Dropped() {
		t.Fatal("abandon-side version must survive on abandonment")
	}
	if !copies[0].Dropped() {
		t.Fatal("completion-side version must be dropped")
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestPopRootAdvances(t *testing.T) {
	h := newHarness()
	h.tree.NewWindow(h.window(0, 100))
	dep := h.tree.NewWindow(h.window(50, 150))[0]
	next := h.tree.PopRoot()
	if next != dep {
		t.Fatal("PopRoot must promote the dependent window's version")
	}
	if h.tree.Root().WV != dep || h.tree.Root().Parent() != nil {
		t.Fatal("new root must be detached from its old parent")
	}
	if h.tree.PopRoot() != nil || !h.tree.Empty() {
		t.Fatal("tree must drain")
	}
}

func TestRebuildBelow(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	dep := h.tree.NewWindow(h.window(50, 150))[0]
	dep2 := h.tree.NewWindow(h.window(90, 190))[0]
	cg := h.cg(root)
	h.tree.CGCreated(cg)

	fresh := h.tree.RebuildBelow(root)
	if len(fresh) != 2 {
		t.Fatalf("rebuild created %d fresh versions, want 2", len(fresh))
	}
	if !dep.Dropped() || !dep2.Dropped() {
		t.Fatal("old dependents must be dropped")
	}
	if fresh[0].Win.ID > fresh[1].Win.ID {
		t.Fatal("fresh chain must be in window order")
	}
	for _, wv := range fresh {
		if len(wv.Suppressed) != 0 {
			t.Fatal("fresh chain inherits only the rebuilt version's suppression (none here)")
		}
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestTopKOrdering verifies the max-heap walk of Fig. 6: higher survival
// probability first, abandon vs completion weighting from the predictor.
func TestTopKOrdering(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	dep := h.tree.NewWindow(h.window(50, 150))[0]
	cg := h.cg(root)
	copies := h.tree.CGCreated(cg)
	copyWV := copies[0]

	probHigh := func(*CG) float64 { return 0.9 }
	all := func(*WindowVersion) bool { return true }

	got := h.tree.TopK(3, probHigh, all, nil)
	if len(got) != 3 {
		t.Fatalf("topk returned %d, want 3", len(got))
	}
	if got[0] != root {
		t.Fatal("root (SP=1) must rank first")
	}
	if got[1] != copyWV {
		t.Fatalf("completion-edge version (SP=0.9) must rank second, got WV%d", got[1].ID)
	}
	if got[2] != dep {
		t.Fatal("abandon-edge version (SP=0.1) must rank third")
	}

	probLow := func(*CG) float64 { return 0.2 }
	got = h.tree.TopK(3, probLow, all, nil)
	if got[1] != dep || got[2] != copyWV {
		t.Fatal("with P=0.2 the abandon edge must rank before the completion edge")
	}
}

// TestTopKEligibleFilter checks that ineligible versions are skipped but
// their subtrees still explored.
func TestTopKEligibleFilter(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	dep := h.tree.NewWindow(h.window(50, 150))[0]
	root.MarkFinished()
	got := h.tree.TopK(2, func(*CG) float64 { return 0.5 },
		func(wv *WindowVersion) bool { return !wv.Finished() }, nil)
	if len(got) != 1 || got[0] != dep {
		t.Fatalf("topk = %v, want only the dependent version", got)
	}
}

// TestMultipleCGsSharedReference exercises the structure-copy path: a
// second group of the same owner replicates the first group's vertex with
// a shared reference, and resolving the first group splices both copies.
func TestMultipleCGsSharedReference(t *testing.T) {
	h := newHarness()
	root := h.tree.NewWindow(h.window(0, 100))[0]
	h.tree.NewWindow(h.window(50, 150))
	cg1 := h.cg(root)
	h.tree.CGCreated(cg1)
	cg2 := h.cg(root)
	created := h.tree.CGCreated(cg2)
	// cg2's completion edge must contain a copy of cg1's vertex, so the
	// dependent window has 4 versions total (2×2 outcomes).
	if h.tree.Size() != 1+4 {
		t.Fatalf("tree size = %d, want 5 (root + 4 dependent versions)", h.tree.Size())
	}
	if len(created) != 2 {
		t.Fatalf("cg2 copies = %d, want 2 (cg1-abandon and cg1-complete sides)", len(created))
	}
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}

	cg1.Resolve(CGCompleted)
	h.tree.CGResolved(cg1)
	if err := h.tree.Check(); err != nil {
		t.Fatal(err)
	}
	// Only versions assuming cg1-completion survive: one per cg2 outcome.
	if h.tree.Size() != 1+2 {
		t.Fatalf("tree size after cg1 completion = %d, want 3", h.tree.Size())
	}
	cg2.Resolve(CGAbandoned)
	h.tree.CGResolved(cg2)
	if h.tree.Size() != 1+1 {
		t.Fatalf("tree size after cg2 abandonment = %d, want 2", h.tree.Size())
	}
	surv := h.tree.Root().Child().WV
	if len(surv.Suppressed) != 1 || surv.Suppressed[0] != cg1 {
		t.Fatal("survivor must suppress exactly the completed cg1")
	}
}

// TestRandomizedTreeInvariants drives the tree through random operation
// sequences and validates the structural invariants after every step.
func TestRandomizedTreeInvariants(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := newHarness()
		var openCGs []*CG
		var live []*WindowVersion
		start := uint64(0)

		for step := 0; step < 200; step++ {
			switch rng.Intn(10) {
			case 0, 1, 2: // new window
				created := h.tree.NewWindow(h.window(start, start+100))
				start += uint64(rng.Intn(50) + 1)
				live = append(live, created...)
			case 3, 4: // create a CG on a random live version
				if len(live) == 0 {
					continue
				}
				wv := live[rng.Intn(len(live))]
				if wv.Dropped() {
					continue
				}
				cg := h.cg(wv)
				created := h.tree.CGCreated(cg)
				live = append(live, created...)
				openCGs = append(openCGs, cg)
			case 5, 6: // resolve a random open CG
				if len(openCGs) == 0 {
					continue
				}
				i := rng.Intn(len(openCGs))
				cg := openCGs[i]
				openCGs = append(openCGs[:i], openCGs[i+1:]...)
				if rng.Intn(2) == 0 {
					cg.Resolve(CGCompleted)
				} else {
					cg.Resolve(CGAbandoned)
				}
				h.tree.CGResolved(cg)
			case 7: // rebuild below a live version
				if len(live) == 0 {
					continue
				}
				wv := live[rng.Intn(len(live))]
				if wv.Dropped() {
					continue
				}
				created := h.tree.RebuildBelow(wv)
				live = append(live, created...)
			case 8: // pop the root if it has no pending CG vertex below
				root := h.tree.Root()
				if root == nil {
					continue
				}
				if c := root.Child(); c == nil || c.IsWV() {
					h.tree.PopRoot()
				}
			case 9: // top-k never panics and returns live versions
				got := h.tree.TopK(4, func(cg *CG) float64 {
					switch cg.Outcome() {
					case CGCompleted:
						return 1
					case CGAbandoned:
						return 0
					}
					return rng.Float64()
				}, nil, nil)
				for _, wv := range got {
					if wv.Dropped() {
						t.Fatalf("seed %d step %d: top-k returned dropped version", seed, step)
					}
				}
			}
			if err := h.tree.Check(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if h.tree.MaxSize() < h.tree.Size() {
				t.Fatalf("seed %d: max size below current size", seed)
			}
		}
	}
}

func TestCGSnapshots(t *testing.T) {
	cg := NewCG(1, nil, 0, 5)
	if cg.Contains(10) {
		t.Fatal("empty group must contain nothing")
	}
	cg.Add(10)
	cg.Add(20)
	cg.Add(15) // out-of-order insert
	cg.Add(20) // duplicate
	snap := cg.Snapshot()
	if len(snap.Seqs) != 3 || snap.Seqs[0] != 10 || snap.Seqs[1] != 15 || snap.Seqs[2] != 20 {
		t.Fatalf("snapshot = %v, want [10 15 20]", snap.Seqs)
	}
	if snap.Version != 3 {
		t.Fatalf("version = %d, want 3 (duplicate must not bump)", snap.Version)
	}
	if !cg.Contains(15) || cg.Contains(16) {
		t.Fatal("Contains must use binary search on the snapshot")
	}
	if !cg.Resolve(CGCompleted) {
		t.Fatal("first resolve must succeed")
	}
	if cg.Resolve(CGAbandoned) {
		t.Fatal("second resolve must be a no-op")
	}
	if cg.Outcome() != CGCompleted {
		t.Fatal("outcome must stay completed")
	}
}

// refTopK is the top-k walk over container/heap that TopK's typed heap
// replaced; TestTopKMatchesHeapWalk holds TopK to its order.
func refTopK(t *Tree, k int, prob func(cg *CG) float64, eligible func(wv *WindowVersion) bool) []*WindowVersion {
	var out []*WindowVersion
	if t.root == nil || k <= 0 {
		return out
	}
	h := &refHeap{{node: t.root, sp: 1}}
	for h.Len() > 0 && len(out) < k {
		it := heap.Pop(h).(topItem)
		n := it.node
		if n.IsWV() {
			if eligible == nil || eligible(n.WV) {
				out = append(out, n.WV)
			}
			if c := n.children[0]; c != nil {
				heap.Push(h, topItem{node: c, sp: it.sp})
			}
			continue
		}
		p := min(max(prob(n.CG), 0), 1)
		if c := n.children[AbandonEdge]; c != nil {
			heap.Push(h, topItem{node: c, sp: it.sp * (1 - p)})
		}
		if c := n.children[CompletionEdge]; c != nil {
			heap.Push(h, topItem{node: c, sp: it.sp * p})
		}
	}
	return out
}

type refHeap []topItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].sp != h[j].sp {
		return h[i].sp > h[j].sp
	}
	return h[i].node.stamp < h[j].node.stamp
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(topItem)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// randomTree grows a tree through random windows, groups and outcomes.
func randomTree(rng *rand.Rand, steps int) *harness {
	h := newHarness()
	var live []*WindowVersion
	var open []*CG
	start := uint64(0)
	for range steps {
		switch r := rng.Intn(10); {
		case r < 4 || len(live) == 0:
			live = append(live, h.tree.NewWindow(h.window(start, start+100))...)
			start += uint64(rng.Intn(50) + 1)
		case r < 8:
			wv := live[rng.Intn(len(live))]
			if wv.Dropped() {
				continue
			}
			cg := h.cg(wv)
			live = append(live, h.tree.CGCreated(cg)...)
			open = append(open, cg)
		case len(open) > 0:
			i := rng.Intn(len(open))
			cg := open[i]
			open = append(open[:i], open[i+1:]...)
			cg.Resolve(CGOutcome(1 + rng.Intn(2)))
			h.tree.CGResolved(cg)
		}
	}
	return h
}

// TestTopKMatchesHeapWalk checks, over random trees and probabilities
// with many tied survival probabilities, that TopK returns the versions
// of the container/heap walk in the same order, and that a call with a
// reused out allocates nothing.
func TestTopKMatchesHeapWalk(t *testing.T) {
	ps := []float64{0, 0.25, 0.5, 0.5, 1, -1, 2}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := randomTree(rng, 10+rng.Intn(60))
		if err := h.tree.Check(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		probs := map[*CG]float64{}
		prob := func(cg *CG) float64 {
			p, ok := probs[cg]
			if !ok {
				if rng.Intn(2) == 0 {
					p = ps[rng.Intn(len(ps))]
				} else {
					p = rng.Float64()
				}
				probs[cg] = p
			}
			return p
		}
		mod := uint64(1 + rng.Intn(4))
		eligible := func(wv *WindowVersion) bool { return wv.ID%mod != 0 }
		var out []*WindowVersion
		for _, k := range []int{1, 2, 4, 8, 64} {
			for _, el := range []func(*WindowVersion) bool{nil, eligible} {
				want := refTopK(h.tree, k, prob, el)
				out = h.tree.TopK(k, prob, el, out[:0])
				if !slices.Equal(out, want) {
					t.Fatalf("seed %d k %d: TopK = %v, heap walk = %v", seed, k, ids(out), ids(want))
				}
			}
		}
		out = h.tree.TopK(64, prob, nil, out[:0])
		if a := testing.AllocsPerRun(20, func() { out = h.tree.TopK(64, prob, eligible, out[:0]) }); a != 0 {
			t.Fatalf("seed %d: TopK with a reused out: %v allocs, want 0", seed, a)
		}
	}
}

func ids(wvs []*WindowVersion) []uint64 {
	out := make([]uint64, len(wvs))
	for i, wv := range wvs {
		out[i] = wv.ID
	}
	return out
}

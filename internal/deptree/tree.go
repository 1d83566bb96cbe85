package deptree

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/spectrecep/spectre/internal/window"
)

// Node is a dependency-tree vertex: either a window version or a
// consumption group (paper §3.1). A WV node has at most one child
// (children[0]); a CG node has an abandon edge (children[0]) and a
// completion edge (children[1]).
type Node struct {
	WV *WindowVersion
	CG *CG

	children [2]*Node
	parent   *Node
	slot     int
	detached bool
	stamp    uint64 // creation order, used as a deterministic tie-break
}

// Slots of CG nodes.
const (
	// AbandonEdge links versions that assume the group is abandoned.
	AbandonEdge = 0
	// CompletionEdge links versions that assume the group completes (its
	// events suppressed).
	CompletionEdge = 1
)

// IsWV reports whether the node is a window-version vertex.
func (n *Node) IsWV() bool { return n.WV != nil }

// Child returns the WV node's only child.
func (n *Node) Child() *Node { return n.children[0] }

// Edge returns the CG node's edge (AbandonEdge or CompletionEdge).
func (n *Node) Edge(slot int) *Node { return n.children[slot] }

// Parent returns the parent vertex (nil at the root).
func (n *Node) Parent() *Node { return n.parent }

// Tree is the dependency tree. It is owned by the splitter goroutine and
// is not safe for concurrent use.
type Tree struct {
	// NewVersion creates a fresh window version (the runtime supplies
	// version ids and processing state initialization).
	NewVersion func(win *window.Window, suppressed []*CG) *WindowVersion
	// OnDrop is invoked for every window version removed from the tree
	// (wrong speculation path); may be nil.
	OnDrop func(wv *WindowVersion)
	// CapSize, when positive, stops CGCreated from inserting
	// consumption-group vertices once the tree holds CapSize window
	// versions (the group is treated as abandoned by the tree).
	//
	// Deprecated: the runtime bounds the tree by its lookahead horizon,
	// in windows, and never sets CapSize; it stays for callers that
	// drive a Tree directly.
	CapSize int

	root    *Node
	stamp   uint64
	size    int       // current number of WV vertices
	maxSize int       // high-water mark (paper Fig. 10(f))
	walk    []topItem // TopK's heap, kept between calls

	// Scratch kept between calls: the versions NewWindow, CGCreated and
	// RebuildBelow return, and windowsInSubtree's result.
	created []*WindowVersion
	wins    []*window.Window
}

// NewTree returns an empty tree using the given version factory.
func NewTree(newVersion func(win *window.Window, suppressed []*CG) *WindowVersion) *Tree {
	return &Tree{NewVersion: newVersion}
}

// Root returns the root vertex (nil when the tree is empty). The root is
// always a window-version vertex: the single version of the oldest
// unresolved window.
func (t *Tree) Root() *Node { return t.root }

// Empty reports whether the tree has no vertices.
func (t *Tree) Empty() bool { return t.root == nil }

// Size returns the current number of window-version vertices.
func (t *Tree) Size() int { return t.size }

// MaxSize returns the high-water mark of window-version vertices (the
// metric of paper Fig. 10(f)).
func (t *Tree) MaxSize() int { return t.maxSize }

func (t *Tree) nextStamp() uint64 {
	t.stamp++
	return t.stamp
}

// newWVNode creates a version of win and returns its vertex, which is
// part of the version: a fresh or recycled version's is zero.
func (t *Tree) newWVNode(win *window.Window, suppressed []*CG) *Node {
	wv := t.NewVersion(win, suppressed)
	n := &wv.node
	n.WV, n.stamp = wv, t.nextStamp()
	t.created = append(t.created, wv)
	t.size++
	if t.size > t.maxSize {
		t.maxSize = t.size
	}
	return n
}

func link(parent *Node, slot int, child *Node) {
	parent.children[slot] = child
	if child != nil {
		child.parent = parent
		child.slot = slot
	}
}

// NewWindow attaches versions of win to the tree: one at every WV leaf,
// two at every CG leaf (one per outcome edge), as in the paper's
// newWindow algorithm (Fig. 4, lines 1-10). When the tree is empty the
// window becomes the root (the only version of an independent window).
// It returns the versions created, in scratch the tree owns: the slice is
// valid until the next NewWindow, CGCreated or RebuildBelow.
func (t *Tree) NewWindow(win *window.Window) []*WindowVersion {
	t.created = t.created[:0]
	if t.root == nil {
		t.root = t.newWVNode(win, nil)
	} else {
		t.attachAtLeaves(t.root, nil, win)
	}
	return t.created
}

// attachAtLeaves walks to the leaves, tracking the suppression set implied
// by the completion edges on the path.
func (t *Tree) attachAtLeaves(n *Node, suppressed []*CG, win *window.Window) {
	if n.IsWV() {
		if n.children[0] == nil {
			link(n, 0, t.newWVNode(win, suppressed))
			return
		}
		t.attachAtLeaves(n.children[0], suppressed, win)
		return
	}
	// CG vertex: recurse into both edges; completion adds the group to
	// the suppression set.
	if n.children[AbandonEdge] == nil {
		link(n, AbandonEdge, t.newWVNode(win, suppressed))
	} else {
		t.attachAtLeaves(n.children[AbandonEdge], suppressed, win)
	}
	withCG := appendCG(suppressed, n.CG)
	if n.children[CompletionEdge] == nil {
		link(n, CompletionEdge, t.newWVNode(win, withCG))
	} else {
		t.attachAtLeaves(n.children[CompletionEdge], withCG, win)
	}
}

func appendCG(sup []*CG, cg *CG) []*CG {
	out := make([]*CG, 0, len(sup)+1)
	out = append(out, sup...)
	out = append(out, cg)
	return out
}

// CGCreated inserts a vertex for cg below its owning window version
// (paper Fig. 4, lines 12-16): the owner's old subtree moves to the
// abandon edge; the completion edge receives versions of the same
// dependent windows that additionally suppress cg. It returns the window
// versions created for the completion edge, in scratch the tree owns: the
// slice is valid until the next NewWindow, CGCreated or RebuildBelow.
//
// The tree holds vertices for open groups only: a group already resolved
// when its creation is applied inserts nothing. An abandoned group's
// abandon edge is the existing subtree; a completed group's dependents
// keep running without suppressing it, and the runtime's final
// validation gate repairs the roots its consumption affects.
func (t *Tree) CGCreated(cg *CG) []*WindowVersion {
	if cg.Outcome() != CGOpen {
		return nil
	}
	owner := cg.Owner
	if owner == nil || owner.Dropped() || owner.node.WV == nil || owner.node.detached {
		return nil
	}
	if t.CapSize > 0 && t.size >= t.CapSize {
		return nil
	}
	n := &owner.node
	old := n.children[0]
	cgNode := &Node{CG: cg, stamp: t.nextStamp()}
	cg.nodes = append(cg.nodes, cgNode)
	link(n, 0, cgNode)
	link(cgNode, AbandonEdge, old)
	t.created = t.created[:0]
	link(cgNode, CompletionEdge, t.copyStructure(old, owner, appendCG(owner.Suppressed, cg)))
	return t.created
}

// copyStructure builds the "modified copy" of the paper: consumption-group
// vertices owned by the same window version are replicated with shared
// group references (their outcomes branch the copy exactly like the
// original), while dependent windows' versions are created fresh — a
// different suppression set changes their detection, so their partial
// matches (and any groups those created) cannot be reused.
func (t *Tree) copyStructure(n *Node, owner *WindowVersion, suppressed []*CG) *Node {
	if n == nil {
		return nil
	}
	if !n.IsWV() && n.CG.Owner == owner {
		cn := &Node{CG: n.CG, stamp: t.nextStamp()}
		n.CG.nodes = append(n.CG.nodes, cn)
		link(cn, AbandonEdge, t.copyStructure(n.children[AbandonEdge], owner, suppressed))
		link(cn, CompletionEdge, t.copyStructure(n.children[CompletionEdge], owner, appendCG(suppressed, n.CG)))
		return cn
	}
	// Window-version boundary: everything below collapses into a fresh
	// linear chain of the windows present in the subtree.
	return t.freshChain(t.windowsInSubtree(n), suppressed)
}

// freshChain builds a linear chain of fresh versions for wins (ascending
// window id) under the given suppression set.
func (t *Tree) freshChain(wins []*window.Window, suppressed []*CG) *Node {
	var head, tail *Node
	for _, w := range wins {
		nd := t.newWVNode(w, suppressed)
		if head == nil {
			head = nd
		} else {
			link(tail, 0, nd)
		}
		tail = nd
	}
	return head
}

// windowsInSubtree collects the distinct windows of all WV vertices below
// (and including) n, ascending by window id, in scratch the tree owns:
// the slice is valid until the next call.
func (t *Tree) windowsInSubtree(n *Node) []*window.Window {
	wins := appendWindows(t.wins[:0], n)
	slices.SortFunc(wins, func(a, b *window.Window) int { return cmp.Compare(a.ID, b.ID) })
	wins = slices.CompactFunc(wins, func(a, b *window.Window) bool { return a.ID == b.ID })
	t.wins = wins
	return wins
}

// appendWindows appends the window of every WV vertex below (and
// including) n.
func appendWindows(wins []*window.Window, n *Node) []*window.Window {
	for ; n != nil; n = n.children[0] {
		if n.IsWV() {
			wins = append(wins, n.WV.Win)
			continue
		}
		wins = appendWindows(wins, n.children[CompletionEdge])
	}
	return wins
}

// CGResolved applies a consumption-group outcome (paper Fig. 4, lines
// 18-26): at every vertex referencing cg, the losing edge's subtree is
// dropped and the winning subtree is spliced to the parent. The group must
// already be resolved (cg.Resolve called).
func (t *Tree) CGResolved(cg *CG) {
	outcome := cg.Outcome()
	if outcome == CGOpen {
		return
	}
	winnerSlot := AbandonEdge
	if outcome == CGCompleted {
		winnerSlot = CompletionEdge
	}
	nodes := cg.nodes
	cg.nodes = nil
	for _, n := range nodes {
		if n.detached {
			continue
		}
		winner := n.children[winnerSlot]
		loser := n.children[1-winnerSlot]
		t.dropSubtree(loser)
		n.detached = true
		parent := n.parent
		if parent == nil {
			// A CG vertex is never the tree root (the root is the single
			// version of the oldest window), but handle it defensively.
			t.root = winner
			if winner != nil {
				winner.parent = nil
			}
			continue
		}
		link(parent, n.slot, winner)
		if winner == nil {
			parent.children[n.slot] = nil
		}
	}
}

// dropSubtree removes a whole subtree: every window version in it is
// marked dropped (wrong speculation) and reported via OnDrop; vertex
// references of consumption groups inside are unregistered.
func (t *Tree) dropSubtree(n *Node) {
	if n == nil {
		return
	}
	n.detached = true
	if n.IsWV() {
		t.size--
		n.WV.MarkDropped()
		if t.OnDrop != nil {
			t.OnDrop(n.WV)
		}
	}
	t.dropSubtree(n.children[0])
	t.dropSubtree(n.children[1])
}

// RebuildBelow discards everything below wv and replaces it with a fresh
// linear chain of the same dependent windows under wv's own suppression
// set. Used after a rollback: the dependents were built on assumptions the
// rolled-back version is about to recompute. It returns the fresh
// versions, in scratch the tree owns: the slice is valid until the next
// NewWindow, CGCreated or RebuildBelow.
func (t *Tree) RebuildBelow(wv *WindowVersion) []*WindowVersion {
	n := &wv.node
	if n.WV == nil || n.detached {
		return nil
	}
	old := n.children[0]
	if old == nil {
		return nil
	}
	wins := t.windowsInSubtree(old)
	t.dropSubtree(old)
	n.children[0] = nil
	t.created = t.created[:0]
	link(n, 0, t.freshChain(wins, wv.Suppressed))
	return t.created
}

// PopRoot removes the root vertex (its window is fully resolved and
// emitted) and promotes its child — which must be a WV vertex or nil — to
// root. It returns the new root's window version (nil when the tree
// drained).
func (t *Tree) PopRoot() *WindowVersion {
	old := t.root
	if old == nil {
		return nil
	}
	child := old.children[0]
	old.detached = true
	t.size--
	t.root = child
	if child == nil {
		return nil
	}
	child.parent = nil
	child.slot = 0
	return child.WV
}

// topItem is a priority-queue entry of the top-k walk.
type topItem struct {
	node *Node
	sp   float64
}

// before orders the walk: higher survival probability first, ties by
// vertex creation order.
func (a topItem) before(b topItem) bool {
	if a.sp != b.sp {
		return a.sp > b.sp
	}
	return a.node.stamp < b.node.stamp
}

// push adds it to the binary heap h (sift-up as container/heap does).
func push(h []topItem, it topItem) []topItem {
	h = append(h, it)
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

// pop removes and returns the first item of the non-empty heap h
// (sift-down as container/heap does).
func pop(h []topItem) ([]topItem, topItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].before(h[j]) {
			j = j2
		}
		if !h[j].before(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// TopK selects the k schedulable window versions with the highest survival
// probability (paper §3.2.2, Fig. 6). prob returns the completion
// probability of an open consumption group; eligible filters versions that
// actually need processing (finished or empty versions are skipped but
// their subtrees are still explored). The result is appended to out. The
// walk's heap is scratch the tree keeps, so a call allocates nothing
// beyond growing out.
//
// Survival probabilities are non-increasing from root to leaves, so the
// tree is a max-heap under SP and the walk visits the minimal number of
// vertices.
func (t *Tree) TopK(k int, prob func(cg *CG) float64, eligible func(wv *WindowVersion) bool, out []*WindowVersion) []*WindowVersion {
	if t.root == nil || k <= 0 {
		return out
	}
	h := push(t.walk[:0], topItem{node: t.root, sp: 1})
	for len(h) > 0 && len(out) < k {
		var it topItem
		h, it = pop(h)
		n := it.node
		if n.IsWV() {
			if eligible == nil || eligible(n.WV) {
				out = append(out, n.WV)
			}
			if c := n.children[0]; c != nil {
				h = push(h, topItem{node: c, sp: it.sp})
			}
			continue
		}
		p := prob(n.CG)
		if p < 0 {
			p = 0
		} else if p > 1 {
			p = 1
		}
		if c := n.children[AbandonEdge]; c != nil {
			h = push(h, topItem{node: c, sp: it.sp * (1 - p)})
		}
		if c := n.children[CompletionEdge]; c != nil {
			h = push(h, topItem{node: c, sp: it.sp * p})
		}
	}
	clear(h[:cap(h)]) // hold no vertex past the walk
	t.walk = h[:0]
	return out
}

// Check verifies structural invariants; it returns an error describing the
// first violation. Used by property-based tests.
func (t *Tree) Check() error {
	if t.root == nil {
		return nil
	}
	if !t.root.IsWV() {
		return fmt.Errorf("deptree: root is not a window-version vertex")
	}
	count := 0
	var walk func(n *Node, sup []*CG) error
	walk = func(n *Node, sup []*CG) error {
		if n.detached {
			return fmt.Errorf("deptree: reachable vertex %d is detached", n.stamp)
		}
		if n.IsWV() {
			count++
			if n.WV.Dropped() {
				return fmt.Errorf("deptree: reachable version %d is dropped", n.WV.ID)
			}
			// Every completion-edge group on the path must be suppressed
			// by the version. (The version may suppress additional
			// already-resolved groups whose vertices were spliced away —
			// their suppression outlives the vertex.)
			suppressed := make(map[*CG]bool, len(n.WV.Suppressed))
			for _, cg := range n.WV.Suppressed {
				suppressed[cg] = true
			}
			for _, cg := range sup {
				if !suppressed[cg] {
					return fmt.Errorf("deptree: version %d misses path-implied suppression of CG%d", n.WV.ID, cg.ID)
				}
			}
			// Conversely, every still-open suppressed group must lie on
			// the version's path.
			onPath := make(map[*CG]bool, len(sup))
			for _, cg := range sup {
				onPath[cg] = true
			}
			for _, cg := range n.WV.Suppressed {
				if cg.Outcome() == CGOpen && !onPath[cg] {
					return fmt.Errorf("deptree: version %d suppresses open CG%d that is not on its path", n.WV.ID, cg.ID)
				}
			}
			if n.children[1] != nil {
				return fmt.Errorf("deptree: WV vertex %d has a second child", n.WV.ID)
			}
		}
		for slot, c := range n.children {
			if c == nil {
				continue
			}
			if c.parent != n || c.slot != slot {
				return fmt.Errorf("deptree: broken parent link at stamp %d", c.stamp)
			}
			childSup := sup
			if !n.IsWV() && slot == CompletionEdge {
				childSup = appendCG(sup, n.CG)
			}
			if err := walk(c, childSup); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("deptree: size %d but %d reachable versions", t.size, count)
	}
	return nil
}

package repro_test

import (
	"fmt"

	"repro"
	"repro/sp"
)

// ExamplePaperExample reproduces the relations the paper quotes for its
// running example (Figures 1, 2, and 4), replaying the tree through an
// SP-order monitor.
func ExamplePaperExample() {
	t := repro.PaperExample()
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	ids := sp.Replay(t, m)
	u := t.Threads()
	fmt.Println("u1 ≺ u4:", m.Precedes(ids.Leaf(u[1]), ids.Leaf(u[4])))
	fmt.Println("u1 ∥ u6:", m.Parallel(ids.Leaf(u[1]), ids.Leaf(u[6])))
	// Output:
	// u1 ≺ u4: true
	// u1 ∥ u6: true
}

// ExampleCanonicalize shows the footnote-6 rewrite that SP-bags and the
// parallel algorithms require.
func ExampleCanonicalize() {
	leaf := func(s string) *repro.Node { return repro.NewLeaf(s, 1) }
	// P(A, S(P(C,D), E)) is not expressible as a single Cilk procedure.
	t := repro.MustTree(repro.NewP(leaf("A"),
		repro.NewS(repro.NewP(leaf("C"), leaf("D")), leaf("E"))))
	fmt.Println("canonical before:", repro.IsCanonical(t))
	canon, _ := repro.Canonicalize(t)
	fmt.Println("canonical after: ", repro.IsCanonical(canon))
	fmt.Println("work preserved:  ", t.Work() == canon.Work() && t.Span() == canon.Span())
	// Output:
	// canonical before: false
	// canonical after:  true
	// work preserved:   true
}

// ExampleSPHybrid runs the parallel algorithm on one worker (so the
// output is deterministic) and queries inside a thread.
func ExampleSPHybrid() {
	t := repro.FibTree(5, 1)
	var first *repro.Node
	var h *repro.SPHybrid
	var sawParallel bool
	h = repro.NewSPHybrid(t, func(w int, u *repro.Node) {
		if first == nil {
			first = u
			return
		}
		if u != first && h.Parallel(first, u) {
			sawParallel = true
		}
	})
	stats := h.Run(1, 0)
	fmt.Println("threads executed:", stats.ThreadsExecuted == int64(t.NumThreads()))
	fmt.Println("found parallel threads:", sawParallel)
	// Output:
	// threads executed: true
	// found parallel threads: false
}

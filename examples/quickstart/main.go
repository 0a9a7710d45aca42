// Quickstart: build a fork-join program as an SP parse tree, replay it
// through an SP-order monitor that maintains series-parallel
// relationships on the fly, and query them.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro"
	"repro/sp"
)

func main() {
	// A small pipeline: load the input, process two halves in parallel
	// (each half forks a nested pair of workers), then merge.
	//
	//	load ; ( (w0 ∥ w1) ; combineA  ∥  (w2 ∥ w3) ; combineB ) ; merge
	load := repro.NewLeaf("load", 10)
	w := make([]*repro.Node, 4)
	for i := range w {
		w[i] = repro.NewLeaf(fmt.Sprintf("worker%d", i), 25)
	}
	combineA := repro.NewLeaf("combineA", 5)
	combineB := repro.NewLeaf("combineB", 5)
	merge := repro.NewLeaf("merge", 10)

	halfA := repro.NewS(repro.NewP(w[0], w[1]), combineA)
	halfB := repro.NewS(repro.NewP(w[2], w[3]), combineB)
	program := repro.MustTree(repro.Seq(load, repro.NewP(halfA, halfB), merge))

	fmt.Printf("program: %d threads, work T1=%d, span T∞=%d, parallelism %.2f\n\n",
		program.NumThreads(), program.Work(), program.Span(),
		float64(program.Work())/float64(program.Span()))

	// Maintain SP relationships on the fly while the program "executes"
	// (a serial left-to-right replay, as in a serial race detector), and
	// query inside threads.
	m := sp.MustMonitor(sp.WithBackend("sp-order"))
	var loadID sp.ThreadID
	ids := sp.ReplayObserved(program, m, func(u *repro.Node, id sp.ThreadID) {
		fmt.Printf("executing %-9s", u.Label)
		if u == load {
			loadID = id
		} else {
			fmt.Printf("  load≺%s=%v", u.Label, m.Precedes(loadID, id))
		}
		fmt.Println()
	})

	fmt.Println("\nqueries after the run:")
	pairs := [][2]*repro.Node{
		{w[0], w[1]},      // parallel siblings
		{w[0], combineA},  // worker precedes its combine
		{w[0], w[2]},      // parallel across halves
		{combineA, merge}, // combine precedes merge
		{load, merge},     // ends of the pipeline
	}
	for _, p := range pairs {
		switch m.Relation(ids.Leaf(p[0]), ids.Leaf(p[1])) {
		case sp.Precedes:
			fmt.Printf("  %-9s ≺ %s (series)\n", p[0].Label, p[1].Label)
		case sp.Follows:
			fmt.Printf("  %-9s ≻ %s (series, reversed)\n", p[0].Label, p[1].Label)
		case sp.Parallel:
			fmt.Printf("  %-9s ∥ %s (logically parallel)\n", p[0].Label, p[1].Label)
		}
	}
}

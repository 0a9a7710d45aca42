package sp

import (
	"fmt"

	"repro/internal/om"
	"repro/sp/metrics"
)

// This file adapts the paper's serial SP-order algorithm (Section 2,
// Figure 5) to the event API. The tree-walk formulation inserts an
// internal node's children into the English and Hebrew order-maintenance
// lists when the node is expanded; the event formulation performs the
// equivalent insertions directly from the fork/join stream:
//
//   - Fork(u) → (l, r): the parse tree grows S(u, P(T_l, T_r)) at u's
//     position, so l and r are inserted immediately after u — left then
//     right in English, right then left in Hebrew (the P-node swap of
//     Figure 5, lines 5–7).
//
//   - Join(a, b) → c: the continuation c is in series after the whole
//     P-subtree. The terminal of a completed branch is both the English
//     and the Hebrew maximum of its subtree, so the subtree's English
//     maximum is b (right-branch terminal) and its Hebrew maximum is a
//     (the P-swap makes the left branch Hebrew-last): c is inserted
//     after b in English and after a in Hebrew.
//
// Queries are Lemma 1 / Corollary 2 verbatim: u ≺ v iff u precedes v in
// both orders; u ∥ v iff the orders disagree. Because insertions are
// positioned relative to existing items only, the structure is
// independent of event arrival order: SP-order is the one serial backend
// that tolerates any creation-respecting event order (AnyOrder).

// spOrder is the event-driven serial SP-order backend.
type spOrder struct {
	eng, heb *om.List
	engIt    []*om.Item // indexed by ThreadID
	hebIt    []*om.Item
}

func newSPOrder() Maintainer { return &spOrder{eng: om.NewList(), heb: om.NewList()} }

// instrument mirrors both lists' relabels into sp_om_relabels_total,
// the series sp-hybrid's concurrent lists also feed (Theorem 5's
// amortized-relabel measure).
func (s *spOrder) instrument(reg *metrics.Registry) {
	s.eng.MRelabels = omRelabels(reg)
	s.heb.MRelabels = s.eng.MRelabels
}

// omRelabels returns the shared relabel counter of every OM list.
func omRelabels(reg *metrics.Registry) *metrics.Counter {
	return reg.Counter("sp_om_relabels_total", "OM items relabeled by rebalances")
}

func (s *spOrder) grow(t ThreadID) {
	for int(t) >= len(s.engIt) {
		s.engIt = append(s.engIt, nil)
		s.hebIt = append(s.hebIt, nil)
	}
}

func (s *spOrder) Start(main ThreadID) {
	s.grow(main)
	s.engIt[main] = s.eng.InsertFirst()
	s.hebIt[main] = s.heb.InsertFirst()
}

func (s *spOrder) Begin(ThreadID) {}

func (s *spOrder) Fork(parent, left, right ThreadID) {
	s.grow(right)
	e := s.eng.InsertAfterN(s.engIt[parent], 2)
	s.engIt[left], s.engIt[right] = e[0], e[1]
	h := s.heb.InsertAfterN(s.hebIt[parent], 2)
	s.hebIt[right], s.hebIt[left] = h[0], h[1]
}

func (s *spOrder) Join(left, right, cont ThreadID) {
	s.grow(cont)
	s.engIt[cont] = s.eng.InsertAfter(s.engIt[right])
	s.hebIt[cont] = s.heb.InsertAfter(s.hebIt[left])
}

func (s *spOrder) items(a, b ThreadID) (ea, eb, ha, hb *om.Item) {
	ea, ha = s.engIt[a], s.hebIt[a]
	eb, hb = s.engIt[b], s.hebIt[b]
	if ea == nil || eb == nil {
		panic(fmt.Sprintf("sp: sp-order query on unknown thread (t%d, t%d)", a, b))
	}
	return
}

func (s *spOrder) Precedes(a, b ThreadID) bool {
	ea, eb, ha, hb := s.items(a, b)
	return s.eng.Precedes(ea, eb) && s.heb.Precedes(ha, hb)
}

func (s *spOrder) Parallel(a, b ThreadID) bool {
	if a == b {
		return false
	}
	ea, eb, ha, hb := s.items(a, b)
	return s.eng.Precedes(ea, eb) != s.heb.Precedes(ha, hb)
}

// EnglishBefore and HebrewBefore expose the two maintained orders
// exactly, so the Monitor's two-reader race-detection protocol stays
// complete even for concurrent-order event streams (which the Monitor
// serializes for this backend).
func (s *spOrder) EnglishBefore(a, b ThreadID) bool {
	ea, eb, _, _ := s.items(a, b)
	return s.eng.Precedes(ea, eb)
}

func (s *spOrder) HebrewBefore(a, b ThreadID) bool {
	_, _, ha, hb := s.items(a, b)
	return s.heb.Precedes(ha, hb)
}

// spOrderImplicit is the footnote-2 variant: during a serial depth-first
// execution the English order of threads is just execution order, so it
// is maintained implicitly by a begin counter and only the Hebrew order
// needs the OM structure. This halves the OM-INSERT traffic at the cost
// of requiring the serial (English) event order.
type spOrderImplicit struct {
	heb     *om.List
	hebIt   []*om.Item
	engIdx  []int64 // 1-based begin index; 0 = not yet begun
	counter int64
}

func newSPOrderImplicit() Maintainer { return &spOrderImplicit{heb: om.NewList()} }

func (s *spOrderImplicit) instrument(reg *metrics.Registry) { s.heb.MRelabels = omRelabels(reg) }

func (s *spOrderImplicit) grow(t ThreadID) {
	for int(t) >= len(s.hebIt) {
		s.hebIt = append(s.hebIt, nil)
		s.engIdx = append(s.engIdx, 0)
	}
}

func (s *spOrderImplicit) Start(main ThreadID) {
	s.grow(main)
	s.hebIt[main] = s.heb.InsertFirst()
}

func (s *spOrderImplicit) Begin(t ThreadID) {
	if s.engIdx[t] == 0 {
		s.counter++
		s.engIdx[t] = s.counter
	}
}

func (s *spOrderImplicit) Fork(parent, left, right ThreadID) {
	s.grow(right)
	h := s.heb.InsertAfterN(s.hebIt[parent], 2)
	s.hebIt[right], s.hebIt[left] = h[0], h[1]
}

func (s *spOrderImplicit) Join(left, right, cont ThreadID) {
	s.grow(cont)
	s.hebIt[cont] = s.heb.InsertAfter(s.hebIt[left])
}

func (s *spOrderImplicit) indices(a, b ThreadID) (ea, eb int64) {
	ea, eb = s.engIdx[a], s.engIdx[b]
	if ea == 0 || eb == 0 {
		panic(fmt.Sprintf("sp: sp-order-implicit query on a thread that has not begun (t%d, t%d)", a, b))
	}
	return
}

func (s *spOrderImplicit) Precedes(a, b ThreadID) bool {
	ea, eb := s.indices(a, b)
	return ea < eb && s.heb.Precedes(s.hebIt[a], s.hebIt[b])
}

func (s *spOrderImplicit) Parallel(a, b ThreadID) bool {
	if a == b {
		return false
	}
	ea, eb := s.indices(a, b)
	return (ea < eb) != s.heb.Precedes(s.hebIt[a], s.hebIt[b])
}

func init() {
	Register(BackendInfo{
		Name:        "sp-order",
		Description: "serial SP-order over two order-maintenance lists (Section 2)",
		UpdateBound: "O(1) amortized", QueryBound: "O(1)", SpaceBound: "O(1)",
		FullQueries: true,
		AnyOrder:    true,
	}, newSPOrder)
	Register(BackendInfo{
		Name:        "sp-order-implicit",
		Description: "SP-order with the English order kept by an execution counter (footnote 2)",
		UpdateBound: "O(1) amortized", QueryBound: "O(1)", SpaceBound: "O(1)",
		FullQueries: true,
	}, newSPOrderImplicit)
}

package sp

import (
	"cmp"
	"fmt"
	"slices"

	"repro/sp/metrics"
)

// This file adapts the two static labeling baselines of Figure 3 — the
// English-Hebrew scheme of Nudler–Rudolph and the offset-span scheme of
// Mellor-Crummey — to the event API. Both schemes generate a thread's
// label from its creator's label at the structural event that creates
// it, so a tree walk's context stack collapses to per-thread labels plus
// two local rules:
//
//   - Fork(u) → (l, r): advance u's label past its completed block (the
//     walk's post-leaf bump), then extend it with the two branch
//     components — EH appends (tag, fresh counter) with the left branch
//     tagged Hebrew-later; offset-span appends [i, 2] pairs.
//   - Join(a, b) → c: strip the branch components off the continuation
//     terminal b's label (recovering the fork's saved context — serial
//     successors only ever modify the last component) and advance.
//
// The English half of the EH scheme is the thread's execution index,
// maintained by the Begin counter, so — like the original on-the-fly
// labeling pass — these backends require the serial depth-first event
// order. Labels never change once generated; their weakness, and the
// reason SP-order beats them, is that label length (and thus query cost)
// grows with fork nesting. Instrumented monitors export that growth as
// the label-words high-water gauge, Figure 3's "space per node" column.

// labelWordsHelp describes sp_label_words_highwater.
const labelWordsHelp = "longest thread label created, in 4-byte words (Figure 3 space per node)"

// englishHebrew is the event-driven Nudler–Rudolph backend.
type englishHebrew struct {
	eng     []int64
	heb     [][]int32
	counter int64
	mxWords *metrics.Gauge // nil unless instrumented
}

func newEnglishHebrew() Maintainer { return &englishHebrew{} }

func (e *englishHebrew) instrument(reg *metrics.Registry) {
	e.mxWords = reg.Gauge("sp_label_words_highwater", labelWordsHelp)
}

// setHeb stores t's Hebrew label and records its size: the Hebrew
// vector plus the int64 English index (two words).
func (e *englishHebrew) setHeb(t ThreadID, v []int32) {
	e.heb[t] = v
	e.mxWords.SetMax(float64(len(v) + 2))
}

func (e *englishHebrew) grow(t ThreadID) {
	for int(t) >= len(e.eng) {
		e.eng = append(e.eng, 0)
		e.heb = append(e.heb, nil)
	}
}

// bumpHeb returns a copy of v with its trailing counter advanced.
func bumpHeb(v []int32) []int32 {
	out := make([]int32, len(v))
	copy(out, v)
	out[len(out)-1]++
	return out
}

// extendHeb returns a copy of v with a branch tag and a fresh counter.
func extendHeb(v []int32, tag int32) []int32 {
	out := make([]int32, len(v)+2)
	copy(out, v)
	out[len(v)] = tag
	return out
}

func (e *englishHebrew) Start(main ThreadID) {
	e.grow(main)
	e.setHeb(main, []int32{0})
}

func (e *englishHebrew) Begin(t ThreadID) {
	if e.eng[t] == 0 {
		e.counter++
		e.eng[t] = e.counter
	}
}

func (e *englishHebrew) Fork(parent, left, right ThreadID) {
	e.grow(right)
	base := bumpHeb(e.heb[parent])
	// Left (spawned) branch is Hebrew-later: tag 1; right earlier: tag 0.
	e.setHeb(left, extendHeb(base, 1))
	e.setHeb(right, extendHeb(base, 0))
}

func (e *englishHebrew) Join(left, right, cont ThreadID) {
	e.grow(cont)
	b := e.heb[right]
	// Strip the branch components to recover the fork's context, then
	// advance past the join.
	e.setHeb(cont, bumpHeb(b[:len(b)-2]))
}

func (e *englishHebrew) indices(a, b ThreadID) (ea, eb int64) {
	ea, eb = e.eng[a], e.eng[b]
	if ea == 0 || eb == 0 {
		panic(fmt.Sprintf("sp: english-hebrew query on a thread that has not begun (t%d, t%d)", a, b))
	}
	return
}

func (e *englishHebrew) Precedes(a, b ThreadID) bool {
	ea, eb := e.indices(a, b)
	return ea < eb && slices.Compare(e.heb[a], e.heb[b]) < 0
}

func (e *englishHebrew) Parallel(a, b ThreadID) bool {
	if a == b {
		return false
	}
	ea, eb := e.indices(a, b)
	return (ea < eb) != (slices.Compare(e.heb[a], e.heb[b]) < 0)
}

// osPair is one (offset, span) component of an offset-span label.
type osPair struct {
	Offset int64
	Span   int64
}

// relateOS compares two offset-span labels: -1 (a precedes b), +1 (a
// follows b), 0 (parallel). At the first differing pair, offsets
// congruent modulo the span mean serial successors in one fork context;
// incongruent offsets or different spans mean sibling branches. When
// one label is a prefix of the other, the shorter executed first.
func relateOS(a, b []osPair) int {
	for i := range min(len(a), len(b)) {
		pa, pb := a[i], b[i]
		switch {
		case pa == pb:
			continue
		case pa.Span != pb.Span, pa.Offset%pa.Span != pb.Offset%pa.Span:
			return 0
		case pa.Offset < pb.Offset:
			return -1
		default:
			return +1
		}
	}
	return cmp.Compare(len(a), len(b))
}

// offsetSpan is the event-driven Mellor-Crummey backend.
type offsetSpan struct {
	lab     [][]osPair
	mxWords *metrics.Gauge // nil unless instrumented
}

func newOffsetSpan() Maintainer { return &offsetSpan{} }

func (o *offsetSpan) instrument(reg *metrics.Registry) {
	o.mxWords = reg.Gauge("sp_label_words_highwater", labelWordsHelp)
}

// setLab stores t's label and records its size: each pair is two int64s
// (four words).
func (o *offsetSpan) setLab(t ThreadID, v []osPair) {
	o.lab[t] = v
	o.mxWords.SetMax(float64(4 * len(v)))
}

func (o *offsetSpan) grow(t ThreadID) {
	for int(t) >= len(o.lab) {
		o.lab = append(o.lab, nil)
	}
}

// advanceOS returns a copy of v with the last pair's offset advanced by
// its span (the serial-successor rule).
func advanceOS(v []osPair) []osPair {
	out := make([]osPair, len(v))
	copy(out, v)
	out[len(out)-1].Offset += out[len(out)-1].Span
	return out
}

// extendOS returns a copy of v extended with the pair [offset, 2].
func extendOS(v []osPair, offset int64) []osPair {
	out := make([]osPair, len(v)+1)
	copy(out, v)
	out[len(v)] = osPair{Offset: offset, Span: 2}
	return out
}

func (o *offsetSpan) Start(main ThreadID) {
	o.grow(main)
	o.setLab(main, []osPair{{Offset: 0, Span: 1}})
}

func (o *offsetSpan) Begin(ThreadID) {}

func (o *offsetSpan) Fork(parent, left, right ThreadID) {
	o.grow(right)
	base := advanceOS(o.lab[parent])
	o.setLab(left, extendOS(base, 0))
	o.setLab(right, extendOS(base, 1))
}

func (o *offsetSpan) Join(left, right, cont ThreadID) {
	o.grow(cont)
	b := o.lab[right]
	// Pop the branch pair and advance past the join.
	o.setLab(cont, advanceOS(b[:len(b)-1]))
}

func (o *offsetSpan) labelsOf(a, b ThreadID) (la, lb []osPair) {
	la, lb = o.lab[a], o.lab[b]
	if la == nil || lb == nil {
		panic(fmt.Sprintf("sp: offset-span query on unknown thread (t%d, t%d)", a, b))
	}
	return
}

func (o *offsetSpan) Precedes(a, b ThreadID) bool {
	la, lb := o.labelsOf(a, b)
	return relateOS(la, lb) < 0
}

func (o *offsetSpan) Parallel(a, b ThreadID) bool {
	if a == b {
		return false
	}
	la, lb := o.labelsOf(a, b)
	return relateOS(la, lb) == 0
}

// ehRel is the cached per-thread query handle: the current thread's
// Hebrew label is resolved once at thread creation (labels are
// generated at the structural event and never mutate), so each query
// compares against the cached slice instead of re-indexing the backend
// twice. Unlike the other serial backends, english-hebrew maintains
// both total orders explicitly, so its order answers are exact.
type ehRel struct {
	e   *englishHebrew
	cur ThreadID
	heb []int32
}

func (r ehRel) PrecedesCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	ep, ec := r.e.indices(prev, r.cur)
	return ep < ec && slices.Compare(r.e.heb[prev], r.heb) < 0
}

func (r ehRel) ParallelCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	ep, ec := r.e.indices(prev, r.cur)
	return (ep < ec) != (slices.Compare(r.e.heb[prev], r.heb) < 0)
}

func (r ehRel) EnglishBeforeCurrent(prev ThreadID) bool {
	if prev == r.cur {
		return false
	}
	ep, ec := r.e.indices(prev, r.cur)
	return ep < ec
}

func (r ehRel) HebrewBeforeCurrent(prev ThreadID) bool {
	return prev != r.cur && slices.Compare(r.e.heb[prev], r.heb) < 0
}

// ThreadRelative implements HandleMaintainer (consumed under the
// Monitor's serialization).
func (e *englishHebrew) ThreadRelative(t ThreadID) CurrentRelative {
	return ehRel{e: e, cur: t, heb: e.heb[t]}
}

// osRel is offset-span's cached per-thread handle; the label is
// immutable once generated. Offset-span encodes no execution order, so
// the order answers use the serial-stream equivalence the backend
// requires anyway.
type osRel struct {
	o   *offsetSpan
	cur ThreadID
	lab []osPair
}

func (r osRel) PrecedesCurrent(prev ThreadID) bool {
	return prev != r.cur && relateOS(r.o.lab[prev], r.lab) < 0
}

func (r osRel) ParallelCurrent(prev ThreadID) bool {
	return prev != r.cur && relateOS(r.o.lab[prev], r.lab) == 0
}

func (r osRel) EnglishBeforeCurrent(prev ThreadID) bool { return prev != r.cur }

func (r osRel) HebrewBeforeCurrent(prev ThreadID) bool { return r.PrecedesCurrent(prev) }

// ThreadRelative implements HandleMaintainer (consumed under the
// Monitor's serialization).
func (o *offsetSpan) ThreadRelative(t ThreadID) CurrentRelative {
	return osRel{o: o, cur: t, lab: o.lab[t]}
}

func init() {
	Register(BackendInfo{
		Name:        "english-hebrew",
		Description: "static Nudler–Rudolph labels generated on the fly (Figure 3 baseline)",
		UpdateBound: "O(f)", QueryBound: "O(f)", SpaceBound: "O(f) words",
		FullQueries: true,
	}, newEnglishHebrew)
	Register(BackendInfo{
		Name:        "offset-span",
		Description: "static Mellor-Crummey offset-span labels generated on the fly (Figure 3 baseline)",
		UpdateBound: "O(d)", QueryBound: "O(d)", SpaceBound: "O(d) words",
		FullQueries: true,
	}, newOffsetSpan)
}

// Package repro is a Go implementation of the algorithms in Bender,
// Fineman, Gilbert, and Leiserson, "On-the-Fly Maintenance of
// Series-Parallel Relationships in Fork-Join Multithreaded Programs"
// (SPAA 2004).
//
// The SP-maintenance backends themselves (SP-order, SP-bags, the
// English-Hebrew and offset-span labelers, SP-hybrid, DePa) and the
// race detectors built on them live in the event-driven package
// repro/sp: create an sp.Monitor with a registry backend and either
// emit fork/join/access events live or replay a parse tree with
// sp.Replay. This package holds what sp has no counterpart for:
//
//   - SP parse trees and computation dags for fork-join programs
//     (NewLeaf/NewS/NewP, Seq/Par, Proc, Generate, Canonicalize) — the
//     input sp.Replay takes, which code outside this module can build
//     only through these re-exports;
//   - the ground-truth LCA oracle and the paper's workloads;
//   - the parallel SP-hybrid algorithm (Sections 3–7) coupled to a
//     Cilk-style work-stealing scheduler, and DetectParallel, the race
//     detector that runs on it and reports the scheduler statistics
//     (steals, splits, query retries) of Theorem 10 and Section 7.
//
// See the examples/ directory for runnable programs and bench_test.go
// and cmd/spbench for the reproduction of the paper's tables.
package repro

import (
	"math/rand"

	"repro/internal/race"
	"repro/internal/sphybrid"
	"repro/internal/spt"
	"repro/internal/workload"
)

// Parse-tree model (internal/spt).
type (
	// Tree is a validated SP parse tree.
	Tree = spt.Tree
	// Node is a parse-tree node (thread leaf, S-node, or P-node).
	Node = spt.Node
	// Kind discriminates node kinds.
	Kind = spt.Kind
	// Step is one synthetic instruction of a thread.
	Step = spt.Step
	// Proc describes a Cilk procedure (sync blocks of spawns/threads).
	Proc = spt.Proc
	// SyncBlock is one sync block of a Proc.
	SyncBlock = spt.SyncBlock
	// Stmt is a statement of a sync block (thread or spawn).
	Stmt = spt.Stmt
	// Oracle answers ground-truth SP queries via least common ancestors.
	Oracle = spt.Oracle
	// Relation is the SP relationship between two nodes.
	Relation = spt.Relation
	// Dag is the computation-dag view of a program (Figure 1).
	Dag = spt.Dag
	// GenConfig parameterizes the random program generator.
	GenConfig = spt.GenConfig
)

// Node kind and relation constants.
const (
	Leaf     = spt.Leaf
	SNode    = spt.SNode
	PNode    = spt.PNode
	Same     = spt.Same
	Precedes = spt.Precedes
	Follows  = spt.Follows
	Parallel = spt.Parallel
	Ancestor = spt.Ancestor
)

// Tree construction.
var (
	// NewLeaf creates a thread with a label and synthetic cost.
	NewLeaf = spt.NewLeaf
	// NewS composes two subtrees in series.
	NewS = spt.NewS
	// NewP composes two subtrees in parallel.
	NewP = spt.NewP
	// Seq composes many subtrees in series.
	Seq = spt.Seq
	// Par composes many subtrees in parallel.
	Par = spt.Par
	// NewTree validates and indexes a parse tree.
	NewTree = spt.NewTree
	// MustTree is NewTree panicking on error.
	MustTree = spt.MustTree
	// PaperExample is the Figure 1/2/4 computation.
	PaperExample = spt.PaperExample
	// Generate builds a random SP program.
	Generate = spt.Generate
	// DefaultGenConfig returns a balanced generator configuration.
	DefaultGenConfig = spt.DefaultGenConfig
	// FibTree is the canonical Cilk fib(n) parse tree.
	FibTree = spt.FibTree
	// DeepChain is a fully serial program.
	DeepChain = spt.DeepChain
	// WideFan is a fully parallel program.
	WideFan = spt.WideFan
	// BalancedPTree is a perfect divide-and-conquer program.
	BalancedPTree = spt.BalancedPTree
	// SyncBlockChain is a bulk-synchronous program.
	SyncBlockChain = spt.SyncBlockChain
	// Canonicalize rewrites any SP tree into canonical Cilk form.
	Canonicalize = spt.Canonicalize
	// IsCanonical reports whether a tree is in canonical Cilk form.
	IsCanonical = spt.IsCanonical
	// NewOracle builds the ground-truth LCA oracle.
	NewOracle = spt.NewOracle
	// ThreadStmt and SpawnStmt build Proc statements.
	ThreadStmt = spt.ThreadStmt
	SpawnStmt  = spt.SpawnStmt
	// R, W, Acq, Rel build memory-access and lock steps.
	R   = spt.R
	W   = spt.W
	Acq = spt.Acq
	Rel = spt.Rel
)

// Parallel SP maintenance (internal/sphybrid).
type (
	// SPHybrid is the parallel two-tier SP-maintenance algorithm.
	SPHybrid = sphybrid.SPHybrid
	// HybridStats aggregates an SP-hybrid run's counters.
	HybridStats = sphybrid.Stats
	// HybridTrace is a trace (threads executed between steals).
	HybridTrace = sphybrid.Trace
	// ExecFunc is a thread body run under SP-hybrid.
	ExecFunc = sphybrid.ExecFunc
)

// NewSPHybrid prepares an SP-hybrid run over a canonical tree; exec (may
// be nil) is invoked for every thread and may query the structure.
var NewSPHybrid = sphybrid.New

// NewSPHybridWithOptions is NewSPHybrid with tuning options (e.g. the
// Section 7 CAS-compression local tier).
var NewSPHybridWithOptions = sphybrid.NewWithOptions

// HybridOptions tunes an SP-hybrid run.
type HybridOptions = sphybrid.Options

// Parallel race detection (internal/race).
type (
	// RaceReport is the outcome of a detection run.
	RaceReport = race.Report
	// DetectedRace is one reported determinacy race.
	DetectedRace = race.Race
	// ParallelRaceReport adds SP-hybrid statistics to a report.
	ParallelRaceReport = race.ParallelReport
)

// DetectParallel runs the Nondeterminator protocol under SP-hybrid on
// several work-stealing workers.
var DetectParallel = race.DetectParallel

// Workloads (internal/workload).
type (
	// PlantedWorkload is a program with known racy/safe locations.
	PlantedWorkload = workload.Planted
	// PlantConfig parameterizes PlantRaces.
	PlantConfig = workload.PlantConfig
)

var (
	// PlantRaces builds a program with exactly known races.
	PlantRaces = workload.PlantRaces
	// DefaultPlantConfig is a medium race-planting configuration.
	DefaultPlantConfig = workload.DefaultPlantConfig
	// LockProtected builds the lock-aware demo workload.
	LockProtected = workload.LockProtected
	// FibWithAccesses attaches memory traffic to fib(n).
	FibWithAccesses = workload.FibWithAccesses
	// VectorAccumulate is the intro's parallel-loop workload.
	VectorAccumulate = workload.VectorAccumulate
)

// NewRand returns a deterministic random source for the generators.
func NewRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// Package samr is the public facade of the SAMR partitioning trade-off
// library: a from-scratch reproduction of Steensland & Ray, "A
// Partitioner-Centric Model for SAMR Partitioning Trade-off
// Optimization: Part II" (SAND2003-8725 / ICPP 2004).
//
// The library has three layers:
//
//   - A structured-AMR substrate: integer box algebra, grid hierarchies,
//     Berger–Rigoutsos clustering, a subcycled Berger–Colella driver
//     with four application kernels, and partition-independent traces.
//   - A partitioner suite: domain-based space-filling-curve, patch-based
//     and hybrid (Nature+Fable-style) partitioners, plus a trace-driven
//     execution simulator measuring load imbalance, communication and
//     data migration.
//   - The paper's model: ab-initio penalties (beta_l, beta_c, beta_m),
//     the continuous partitioner-centric classification space, and the
//     meta-partitioner that selects and configures partitioners from
//     application state at run time.
//
// This facade re-exports the names most programs need; the full API
// lives in the internal packages (importable within this module), one
// per subsystem. Every execution entry point (partitioning, evaluation,
// trace simulation) takes a context.Context: partitioners poll it at
// box-batch granularity, so a cancelled or over-deadline call aborts
// promptly with the context's error and never returns a partial
// result. Typical use:
//
//	ctx := context.Background()
//	tr, _ := samr.GenerateTrace(ctx, "BL2D", samr.PaperConfig(), 100)
//	meta := samr.NewMetaPartitioner(core.DefaultPartitionCost)
//	m := samr.DefaultMachine()
//	for _, snap := range tr.Snapshots {
//	    p := meta.Select(snap.H, m.TimeSlot(snap.H, 16))
//	    a, err := p.Partition(ctx, snap.H, 16)
//	    _, _ = a, err
//	}
package samr

import (
	"context"

	"samr/internal/amr"
	"samr/internal/apps"
	"samr/internal/core"
	"samr/internal/experiments"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sim"
	"samr/internal/solver"
	"samr/internal/trace"
)

// Re-exported substrate types.
type (
	// Box is an axis-aligned integer box of grid cells.
	Box = geom.Box
	// BoxList is a collection of boxes forming one level's patches.
	BoxList = geom.BoxList
	// Hierarchy is a snapshot of an adaptive grid hierarchy.
	Hierarchy = grid.Hierarchy
	// Trace is a partition-independent sequence of hierarchy snapshots.
	Trace = trace.Trace
	// Config configures the Berger–Colella AMR driver.
	Config = amr.Config
	// Kernel is an application's numerics on one patch.
	Kernel = solver.Kernel
)

// Re-exported partitioning and simulation types.
type (
	// Partitioner decomposes a hierarchy across processors.
	Partitioner = partition.Partitioner
	// Assignment is a complete distribution of a hierarchy.
	Assignment = partition.Assignment
	// Machine is the analytic machine model.
	Machine = sim.Machine
	// StepMetrics is the simulator output for one coarse step.
	StepMetrics = sim.StepMetrics
)

// Re-exported model types (the paper's contribution).
type (
	// Classifier maps hierarchy snapshots onto the classification space.
	Classifier = core.Classifier
	// Sample is one classification outcome.
	Sample = core.Sample
	// MetaPartitioner selects a partitioner from application state.
	MetaPartitioner = core.MetaPartitioner
)

// NewBox2 returns the 2-D box [x0,x1) x [y0,y1).
func NewBox2(x0, y0, x1, y1 int) Box { return geom.NewBox2(x0, y0, x1, y1) }

// NewHierarchy returns a hierarchy whose base level covers domain.
func NewHierarchy(domain Box, refRatio int) *Hierarchy {
	return grid.NewHierarchy(domain, refRatio)
}

// PaperConfig is the paper's experimental driver configuration: 5
// levels of factor-2 refinement, regrid every 4 steps, granularity 2.
func PaperConfig() Config { return apps.PaperConfig() }

// GenerateTrace runs the named application (RM2D, BL2D, SC2D, TP2D) for
// the given number of coarse steps and returns its trace. The AMR run
// fans per-patch work over the worker pool and honours ctx: a
// cancelled generation returns a nil trace and the context's error.
func GenerateTrace(ctx context.Context, app string, cfg Config, steps int) (*Trace, error) {
	return apps.Generate(ctx, app, cfg, steps)
}

// MigrationPenalty is beta_m: the paper's ab-initio data-migration
// model (dimension III).
func MigrationPenalty(prev, cur *Hierarchy) float64 { return core.MigrationPenalty(prev, cur) }

// CommunicationPenalty is beta_c: the worst-case communication
// pressure of the hierarchy.
func CommunicationPenalty(h *Hierarchy) float64 { return core.CommunicationPenalty(h) }

// LoadPenalty is beta_l: the load-concentration pressure of the
// hierarchy.
func LoadPenalty(h *Hierarchy) float64 { return core.LoadPenalty(h) }

// NewClassifier returns a classification-space classifier;
// partitionCost is the estimated seconds per repartitioning
// (core.DefaultPartitionCost unless the caller has its own).
func NewClassifier(partitionCost float64) *Classifier { return core.NewClassifier(partitionCost) }

// NewMetaPartitioner returns the meta-partitioner with its default
// stable and thresholds.
func NewMetaPartitioner(partitionCost float64) *MetaPartitioner {
	return core.NewMetaPartitioner(partitionCost)
}

// NewDomainSFC returns the Hilbert domain-based partitioner.
func NewDomainSFC() Partitioner { return partition.NewDomainSFC() }

// NewPatchBased returns the per-level LPT patch-based partitioner.
func NewPatchBased() Partitioner { return partition.NewPatchBased() }

// NewNatureFable returns the hybrid partitioner in the paper's static
// default configuration.
func NewNatureFable() Partitioner { return partition.NewNatureFable() }

// NewPostMapped wraps a partitioner with the post-mapping label remap:
// the dimension-III migration remedy (identical decomposition, labels
// permuted to maximize overlap with the previous assignment).
func NewPostMapped(inner Partitioner) Partitioner { return partition.NewPostMapped(inner) }

// DefaultMachine returns the commodity-cluster machine model.
func DefaultMachine() Machine { return sim.DefaultMachine() }

// Evaluate computes partition-quality metrics of one assignment. A
// cancelled ctx aborts the scan and returns the context's error.
func Evaluate(ctx context.Context, h *Hierarchy, a *Assignment, m Machine) (StepMetrics, error) {
	return sim.Evaluate(ctx, h, a, m)
}

// SimulateTrace partitions every trace snapshot with p and evaluates
// each step, chaining assignments for the migration metric. The run is
// bounded by ctx: cancellation aborts mid-trace with no partial result.
func SimulateTrace(ctx context.Context, tr *Trace, p Partitioner, nprocs int, m Machine) (*sim.Result, error) {
	return sim.SimulateTrace(ctx, tr, p, nprocs, m)
}

// DefaultProcs is the processor count of the paper-style validation
// experiments.
const DefaultProcs = experiments.DefaultProcs

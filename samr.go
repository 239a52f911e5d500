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
// This facade re-exports what a program needs to build a hierarchy, read
// its penalties, partition it and evaluate the result. Trace generation,
// the classifier, the meta-partitioner and the trace simulator live in
// the internal packages (importable within this module), one per
// subsystem; the other examples and the binaries take them from there.
// Every execution entry point takes a context.Context: partitioners
// poll it at box-batch granularity, so a cancelled or over-deadline
// call aborts promptly with the context's error and never returns a
// partial result. Typical use (examples/quickstart is this, run end to
// end):
//
//	h := samr.NewHierarchy(samr.NewBox2(0, 0, 64, 64), 2)
//	h.Levels = append(h.Levels, grid.Level{
//	    Boxes: samr.BoxList{samr.NewBox2(20, 20, 60, 60)},
//	})
//	fmt.Println(samr.CommunicationPenalty(h), samr.LoadPenalty(h))
//	ctx := context.Background()
//	for _, p := range []samr.Partitioner{
//	    samr.NewDomainSFC(), samr.NewPatchBased(), samr.NewNatureFable(),
//	} {
//	    a, _ := p.Partition(ctx, h, 8)
//	    sm, _ := samr.Evaluate(ctx, h, a, samr.DefaultMachine())
//	    fmt.Println(p.Name(), sm.Imbalance, sm.RelativeComm)
//	}
package samr

import (
	"context"

	"samr/internal/core"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sim"
)

// Re-exported substrate types.
type (
	// Box is an axis-aligned integer box of grid cells.
	Box = geom.Box
	// BoxList is a collection of boxes forming one level's patches.
	BoxList = geom.BoxList
	// Hierarchy is a snapshot of an adaptive grid hierarchy.
	Hierarchy = grid.Hierarchy
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

// NewBox2 returns the 2-D box [x0,x1) x [y0,y1).
func NewBox2(x0, y0, x1, y1 int) Box { return geom.NewBox2(x0, y0, x1, y1) }

// NewHierarchy returns a hierarchy whose base level covers domain.
func NewHierarchy(domain Box, refRatio int) *Hierarchy {
	return grid.NewHierarchy(domain, refRatio)
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

// NewDomainSFC returns the Hilbert domain-based partitioner.
func NewDomainSFC() Partitioner { return partition.NewDomainSFC() }

// NewPatchBased returns the per-level LPT patch-based partitioner.
func NewPatchBased() Partitioner { return partition.NewPatchBased() }

// NewNatureFable returns the hybrid partitioner in the paper's static
// default configuration.
func NewNatureFable() Partitioner { return partition.NewNatureFable() }

// DefaultMachine returns the commodity-cluster machine model.
func DefaultMachine() Machine { return sim.DefaultMachine() }

// Evaluate computes partition-quality metrics of one assignment. A
// cancelled ctx aborts the scan and returns the context's error.
func Evaluate(ctx context.Context, h *Hierarchy, a *Assignment, m Machine) (StepMetrics, error) {
	return sim.Evaluate(ctx, h, a, m)
}

package core

import (
	"samr/internal/grid"
)

// Point is a location in the continuous partitioner-centric
// classification space (Figure 3, right). Unlike the octant approach,
// coordinates are absolute and continuous; a simulation traces a smooth
// curve of Points, enabling fine-grained partitioner configuration as
// well as coarse selection.
type Point struct {
	// DimI in [0,1]: 0 = focus entirely on load balance, 1 = focus
	// entirely on reducing communication (trade-off 1, Part I).
	DimI float64
	// DimII in [0,1]: 0 = partition as fast as possible, 1 = invest in
	// overall quality (trade-off 2, section 4.3).
	DimII float64
	// DimIII in [0,1]: the need to optimize data migration — beta_m
	// itself (trade-off 3, section 4.4).
	DimIII float64
}

// Sample is one classification outcome: the space point plus the raw
// model quantities it was derived from, for inspection and plotting.
type Sample struct {
	Point
	// Step is the coarse step the sample describes.
	Step int
	// BetaL, BetaC, BetaM are the raw penalties.
	BetaL, BetaC, BetaM float64
	// SizeNorm is |H_t| normalized by the largest hierarchy seen so far
	// (section 4.2: the absolute importance of the relative metrics).
	SizeNorm float64
	// Need is quantity (1) of trade-off 2: mean penalty times SizeNorm.
	Need float64
	// Offer is quantity (2): the fraction of the inter-invocation time
	// slot available for partitioning.
	Offer float64
	// Points is |H_t|.
	Points int64
}

// DefaultPartitionCost is the estimate, in seconds, of what one
// repartitioning costs: the partitionCost every binary, example and
// experiment hands NewClassifier and NewMetaPartitioner. It is a
// constant and not a measurement because no choice depends on it: over
// a sweep from 2e-5 to 1e-1 s the meta-partitioner selects the same
// partitioner on every snapshot of all four applications
// (experiments.TestPartitionCostSweepIsInert holds that), while the
// dimII column of samrbench's trajectory, which bench/golden pins, is
// printed from this value.
const DefaultPartitionCost = 2e-4

// Classifier maps a stream of hierarchy snapshots onto the
// classification space, maintaining the running state the model needs
// (largest hierarchy so far, previous snapshot, invocation timing).
// It is the "classify application state" component of the conceptual
// meta-partitioner (Figure 2).
type Classifier struct {
	prev      *grid.Hierarchy
	maxPoints int64
	step      int
	// partitionCost estimates the seconds one repartitioning takes on
	// the current machine; it feeds trade-off 2's quantity (2).
	partitionCost float64
}

// NewClassifier returns a classifier with the given partitioning-cost
// estimate (seconds per repartitioning invocation).
func NewClassifier(partitionCost float64) *Classifier {
	return &Classifier{partitionCost: partitionCost}
}

// Classify consumes the next hierarchy snapshot. timeSlot is the
// physical (wall-clock) interval since the previous partitioner
// invocation — the paper proposes obtaining it from coarse-grained
// timer calls around the partitioner. The first call has no previous
// hierarchy; its BetaM is zero by definition.
func (c *Classifier) Classify(h *grid.Hierarchy, timeSlot float64) Sample {
	s := Sample{Step: c.step, Points: h.NumPoints()}
	c.step++

	s.BetaL = LoadPenalty(h)
	s.BetaC = CommunicationPenalty(h)
	if c.prev != nil {
		s.BetaM = MigrationPenalty(c.prev, h)
	}

	// Section 4.2: normalize by the largest grid encountered so far
	// (the largest over the whole run is unknowable online).
	if s.Points > c.maxPoints {
		c.maxPoints = s.Points
	}
	if c.maxPoints > 0 {
		s.SizeNorm = float64(s.Points) / float64(c.maxPoints)
	}

	// Dimension I: the relative importance of communication against
	// load balance. Both zero (featureless grid) sits at the neutral
	// midpoint.
	if s.BetaL+s.BetaC > 0 {
		s.DimI = s.BetaC / (s.BetaL + s.BetaC)
	} else {
		s.DimI = 0.5
	}

	// Dimension II, quantity (1): how much partitioning quality the
	// state requests — the mean of the penalties, weighted by the
	// absolute importance of the current grid size (section 4.3).
	s.Need = (s.BetaL + s.BetaC + s.BetaM) / 3 * s.SizeNorm
	// Quantity (2): the share of the invocation interval available for
	// partitioning. Infrequent invocation => large offered slot.
	if timeSlot > 0 && c.partitionCost > 0 {
		s.Offer = clamp01(timeSlot / (timeSlot + c.partitionCost))
	} else if timeSlot > 0 {
		s.Offer = 1
	}
	// Comparing (1) and (2): quality investment is justified in
	// proportion to both the request and the available slot.
	s.DimII = clamp01(s.Need * s.Offer)

	// Dimension III is the migration penalty itself.
	s.DimIII = s.BetaM

	c.prev = h.Clone()
	return s
}

// Reset clears the classifier's running state.
func (c *Classifier) Reset() {
	c.prev = nil
	c.maxPoints = 0
	c.step = 0
}

package core

import (
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/sfc"
)

// MetaPartitioner realizes the paper's conceptual meta-partitioner
// (Figure 2): at every invocation it classifies the current application
// state and selects/configures the most appropriate partitioner,
// enabling fully dynamic PACs — the partitioner P(t) becomes a function
// of the application A(t) and computer C(t).
//
// The mapping from classification point to partitioner follows the
// partitioner characterizations of section 2.2 and the trade-off
// discussion of section 4:
//
//   - speed pressure (low DimII): a cheap domain-based Morton cut with a
//     coarse atomic unit;
//   - migration pressure (high DimIII): a fully ordered Hilbert
//     domain-based partitioning wrapped with the post-mapping label
//     remap — both remedies section 4 names ("invoking some kind of
//     post mapping technique ... or investing more time in creating a
//     more fully ordered SFC mapping");
//   - communication pressure (DimI high): the hybrid with a large
//     atomic unit and whole-block assignment (less surface);
//   - load-balance pressure (DimI low): the hybrid with a fine atomic
//     unit and fractional blocking (the "small atomic unit, large Q"
//     configuration the paper names for load-balance focus);
//   - otherwise: the hybrid's neutral default.
type MetaPartitioner struct {
	classifier *Classifier

	// The pre-configured stable of partitioners.
	fast          partition.Partitioner
	lowMig        partition.Partitioner
	lowComm       partition.Partitioner
	lowImb        partition.Partitioner
	neutral       partition.Partitioner
	lastChoice    partition.Partitioner
	lastCandidate partition.Partitioner
	lastSample    Sample
	haveSample    bool
}

// Thresholds of Select's rules, in the order it tests them.
const (
	speedCutoff     = 0.05 // DimII below it, on a grid under half its peak size: speed wins
	migrationCutoff = 0.12 // DimIII above it: migration pressure
	commCutoff      = 0.75 // DimI above it: communication pressure
	imbalanceCutoff = 0.45 // DimI below it: load-balance pressure
)

// NewMetaPartitioner builds a meta-partitioner with the default stable
// and thresholds. partitionCost seeds the dimension-II model; callers
// without an estimate of their own pass DefaultPartitionCost.
func NewMetaPartitioner(partitionCost float64) *MetaPartitioner {
	return &MetaPartitioner{
		classifier: NewClassifier(partitionCost),
		fast:       &partition.DomainSFC{Curve: sfc.Morton, UnitSize: 4},
		lowMig:     partition.NewPostMapped(&partition.DomainSFC{Curve: sfc.Hilbert, UnitSize: 2}),
		lowComm:    &partition.NatureFable{Curve: sfc.Hilbert, AtomicUnit: 4, Groups: 4, FractionalBlocking: false},
		lowImb:     &partition.NatureFable{Curve: sfc.Hilbert, AtomicUnit: 1, Groups: 4, FractionalBlocking: true},
		neutral:    partition.NewNatureFable(),
	}
}

// Select classifies the hierarchy and returns the partitioner the
// classification point maps to. timeSlot is the interval since the last
// invocation (seconds).
//
// Selection is damped with two-vote hysteresis: the choice changes only
// when two consecutive classifications agree on the same candidate.
// Switching partitioners is itself a migration event (the new layout
// reassigns data wholesale), so reacting to single-step spikes would
// cause exactly the thrashing the ARMaDA sliding-window history was
// introduced to prevent.
func (m *MetaPartitioner) Select(h *grid.Hierarchy, timeSlot float64) partition.Partitioner {
	s := m.classifier.Classify(h, timeSlot)
	m.lastSample = s
	m.haveSample = true
	var candidate partition.Partitioner
	switch {
	case s.DimII < speedCutoff && s.SizeNorm < 0.5:
		// Little is requested and the grid is small: speed wins.
		candidate = m.fast
	case s.DimIII > migrationCutoff:
		candidate = m.lowMig
	case s.DimI > commCutoff:
		candidate = m.lowComm
	case s.DimI < imbalanceCutoff:
		candidate = m.lowImb
	default:
		candidate = m.neutral
	}
	prev := m.lastCandidate
	m.lastCandidate = candidate
	if m.lastChoice == nil || candidate == prev {
		m.lastChoice = candidate
	}
	return m.lastChoice
}

// LastSample returns the classification sample behind the most recent
// Select, and whether a Select has happened yet.
func (m *MetaPartitioner) LastSample() (Sample, bool) { return m.lastSample, m.haveSample }

// Stable lists the partitioners the meta-partitioner chooses among;
// ablation C runs each as a static choice for comparison.
func (m *MetaPartitioner) Stable() []partition.Partitioner {
	return []partition.Partitioner{m.fast, m.lowMig, m.lowComm, m.lowImb, m.neutral}
}

// Reset clears the classification state (for replaying another trace).
func (m *MetaPartitioner) Reset() {
	m.classifier.Reset()
	m.lastChoice = nil
	m.lastCandidate = nil
	m.haveSample = false
}

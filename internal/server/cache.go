package server

import (
	"samr/internal/geom"
	"samr/internal/memo"
	"samr/internal/partition"
)

// CacheKey addresses one partitioning result: the content hash of the
// hierarchy plus the canonical partitioner name and processor count.
// Because every partitioner the server runs is a fresh instance (pure
// function of its spec), equal keys imply equal results — the property
// that makes the cache content-addressed rather than merely memoizing.
type CacheKey struct {
	Sig         geom.Signature
	Partitioner string
	NProcs      int
}

// Cache dispositions: how a request's result was obtained. These are
// the wire names of internal/memo's dispositions.
const (
	// CacheHit served a previously stored result.
	CacheHit = memo.Hit
	// CacheMiss led a fresh compute (exactly one per distinct in-flight
	// key: misses count partitioner executions).
	CacheMiss = memo.Miss
	// CacheShared coalesced onto another request's in-flight compute of
	// the same key (the singleflight path: no duplicate execution).
	CacheShared = memo.Shared
	// CacheTier served a fleet-tier result: the local cache missed but
	// the compute leader found the value in the second-level cache (disk
	// or a peer daemon) instead of running the partitioner.
	CacheTier = memo.TierHit
)

// PartitionCache is the bounded LRU of partitioning results shared by
// every request the server handles, with singleflight coalescing of
// concurrent identical misses: the process-shared memoization
// substrate (internal/memo) instantiated at the server's key and value.
// Stored assignments are treated as immutable by all readers, and
// misses count actual partitioner executions through GetOrCompute.
type PartitionCache = memo.Cache[CacheKey, *partition.Assignment]

// NewPartitionCache returns a cache holding at most capacity results
// (minimum 1).
func NewPartitionCache(capacity int) *PartitionCache {
	return memo.New[CacheKey, *partition.Assignment](capacity)
}

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

// answerCache is the bounded LRU of partitioning results shared by
// every request the server handles, with singleflight coalescing of
// concurrent identical misses: the process-shared memoization
// substrate (internal/memo) instantiated at the server's key and at
// partition.Packed, a delta-coded stream of about 5 bytes a fragment
// against an Assignment's 72, with no append slack, so an entry's size
// is its stream's length. A miss packs its answer once; a hit renders
// the wire body straight from the stream, decoding it in order. Stored
// values are immutable, and misses count actual partitioner executions
// through GetOrCompute.
type answerCache = memo.Cache[CacheKey, partition.Packed]

// PartitionCache is the same LRU over unpacked assignments. The server
// does not use it: it stays only because bench/'s replay builds its memo
// stage from it and NewPartitionCache (ROADMAP 1(b) drops that use, and
// then both go).
type PartitionCache = memo.Cache[CacheKey, *partition.Assignment]

// NewPartitionCache returns a PartitionCache holding at most capacity
// results (minimum 1).
func NewPartitionCache(capacity int) *PartitionCache {
	return memo.New[CacheKey, *partition.Assignment](capacity)
}

package server

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

func sigOf(i int) geom.Signature {
	return grid.NewHierarchy(geom.NewBox2(0, 0, i+1, i+1), 2).Signature()
}

func TestPartitionCacheLRUEviction(t *testing.T) {
	c := NewPartitionCache(3)
	a := &partition.Assignment{NumProcs: 1}
	for i := 0; i < 4; i++ {
		c.Add(CacheKey{Sig: sigOf(i), NProcs: 1}, a)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	if _, ok := c.Get(CacheKey{Sig: sigOf(0), NProcs: 1}); ok {
		t.Error("oldest entry survived past capacity")
	}
	for i := 1; i < 4; i++ {
		if _, ok := c.Get(CacheKey{Sig: sigOf(i), NProcs: 1}); !ok {
			t.Errorf("entry %d evicted prematurely", i)
		}
	}

	// Touching an old entry protects it from the next eviction.
	c.Get(CacheKey{Sig: sigOf(1), NProcs: 1}) //nolint:errcheck
	c.Add(CacheKey{Sig: sigOf(9), NProcs: 1}, a)
	if _, ok := c.Get(CacheKey{Sig: sigOf(1), NProcs: 1}); !ok {
		t.Error("recently used entry was evicted")
	}
	if _, ok := c.Get(CacheKey{Sig: sigOf(2), NProcs: 1}); ok {
		t.Error("least recently used entry survived")
	}
}

func TestPartitionCacheKeyComponents(t *testing.T) {
	c := NewPartitionCache(16)
	a := &partition.Assignment{NumProcs: 4}
	base := CacheKey{Sig: sigOf(0), Partitioner: "domain-hilbert-u2", NProcs: 4}
	c.Add(base, a)
	variants := []CacheKey{
		{Sig: sigOf(1), Partitioner: base.Partitioner, NProcs: base.NProcs},
		{Sig: base.Sig, Partitioner: "domain-morton-u2", NProcs: base.NProcs},
		{Sig: base.Sig, Partitioner: base.Partitioner, NProcs: 8},
	}
	for i, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Errorf("variant %d unexpectedly hit", i)
		}
	}
	if got, _ := c.Get(base); got != a {
		t.Error("exact key missed")
	}
	hits, _, _ := c.Stats()
	if hits != 1 {
		t.Errorf("hits = %d, want 1", hits)
	}
}

func TestPartitionCacheConcurrent(t *testing.T) {
	c := NewPartitionCache(8)
	a := &partition.Assignment{NumProcs: 2}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := CacheKey{Sig: sigOf((w + i) % 12), NProcs: 2}
				if _, ok := c.Get(k); !ok {
					c.Add(k, a)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}

// BenchmarkPartitionCacheHit measures the steady-state service fast
// path: signature the hierarchy, hit the cache.
func BenchmarkPartitionCacheHit(b *testing.B) {
	c := NewPartitionCache(64)
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 256, 256), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(64, 64, 192, 192)}})
	a := &partition.Assignment{NumProcs: 16}
	key := CacheKey{Sig: h.Signature(), Partitioner: "domain-hilbert-u2", NProcs: 16}
	c.Add(key, a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := CacheKey{Sig: h.Signature(), Partitioner: "domain-hilbert-u2", NProcs: 16}
		if _, ok := c.Get(k); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkPartitionCacheMissCompute measures the miss path end to end
// (partition + insert) at a realistic hierarchy size.
func BenchmarkPartitionCacheMissCompute(b *testing.B) {
	h := grid.NewHierarchy(geom.NewBox2(0, 0, 128, 128), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(32, 32, 192, 192)}})
	if err := h.Validate(); err != nil {
		b.Fatal(err)
	}
	c := NewPartitionCache(1) // force every iteration to recompute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := CacheKey{Sig: h.Signature(), Partitioner: fmt.Sprintf("v%d", i%2), NProcs: 16}
		p := partition.NewDomainSFC()
		a, err := p.Partition(context.Background(), h, 16)
		if err != nil {
			b.Fatal(err)
		}
		c.Add(key, a)
	}
}

package tier

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// benchHierarchy builds a paper-shaped two-level hierarchy large enough
// that partitioning it does real work.
func benchHierarchy() *grid.Hierarchy {
	dom := geom.NewBox2(0, 0, 64, 64)
	h := grid.NewHierarchy(dom, 2)
	var fine geom.BoxList
	for i := 0; i < 8; i++ {
		x := 16 * (i % 4)
		y := 64 * (i / 4)
		fine = append(fine, geom.NewBox2(x, y+8, x+12, y+56))
	}
	h.Levels = append(h.Levels, grid.Level{Boxes: fine})
	return h
}

// BenchmarkTierHitVsCompute compares the ways a singleflight leader can
// resolve a local cache miss: a disk hit (disk read + checksum + decode
// to the packed form the daemon's LRU holds), a peer hit (Tier.Lookup
// missing the local disk and fetching from the key's owner over HTTP,
// then the same decode), and running the partitioner. The gap between
// tier-hit and compute is the budget the fleet tier has for network
// hops before it stops paying; peer-hit spends one.
func BenchmarkTierHitVsCompute(b *testing.B) {
	h := benchHierarchy()
	p := partition.NewDomainSFC()
	ctx := context.Background()
	const nprocs = 16

	a, err := p.Partition(ctx, h, nprocs)
	if err != nil {
		b.Fatal(err)
	}
	blob := EncodeAssignment(a)
	store, err := OpenDiskStore(b.TempDir(), 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	key := Key(h.Signature().String(), p.Name(), fmt.Sprint(nprocs))
	if err := store.Put(key, blob); err != nil {
		b.Fatal(err)
	}

	b.Run("tier-hit", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		for i := 0; i < b.N; i++ {
			raw, ok := store.Get(key)
			if !ok {
				b.Fatal("tier entry vanished")
			}
			got, err := DecodePacked(raw)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != len(a.Fragments) {
				b.Fatal("decoded assignment lost fragments")
			}
		}
	})
	b.Run("peer-hit", func(b *testing.B) {
		owner, err := New(Config{Dir: b.TempDir()})
		if err != nil {
			b.Fatal(err)
		}
		if err := owner.Disk().Put(key, blob); err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			owner.ServeGet(w, strings.TrimPrefix(r.URL.Path, "/v1/tier/"))
		}))
		defer ts.Close()
		member, err := New(Config{Dir: b.TempDir(), Peers: []string{ts.URL}})
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			raw, ok := member.Lookup(ctx, key)
			if !ok {
				b.Fatal("the owner did not serve its entry")
			}
			got, err := DecodePacked(raw)
			if err != nil {
				b.Fatal(err)
			}
			if got.Len() != len(a.Fragments) {
				b.Fatal("decoded assignment lost fragments")
			}
		}
		if st := member.Stats(); st.DiskHits != 0 || st.PeerHits != uint64(b.N) {
			b.Fatalf("stats = %+v, want every lookup a peer hit", st)
		}
	})
	b.Run("compute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			got, err := p.Partition(ctx, h, nprocs)
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Fragments) == 0 {
				b.Fatal("empty assignment")
			}
		}
	})
}

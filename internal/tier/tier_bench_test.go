package tier

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
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

// BenchmarkDiskStore times the disk store at 512 resident entries of
// 3 KB, about a fleet answer's blob, for the log and for the
// file-per-entry body it replaced (fileStoreReference): put (an
// overwrite of one of the 512 keys in turn, the log's compactions
// amortised in), get-hit, get-miss, and reopen (an open of the
// directory the puts left, the log's index rebuilt by a scan), each
// with its allocations.
func BenchmarkDiskStore(b *testing.B) {
	const entries, size = 512, 3 << 10
	keys := make([]string, entries)
	for i := range keys {
		keys[i] = Key("bench", strconv.Itoa(i))
	}
	missing := Key("bench", "missing")
	blob := bytes.Repeat([]byte{0xA5}, size)
	type store interface {
		Put(string, []byte) error
		Get(string) ([]byte, bool)
		Len() int
	}
	for _, impl := range []struct {
		name string
		open func(dir string) (store, error)
	}{
		{"log", func(dir string) (store, error) { return OpenDiskStore(dir, 0) }},
		{"reference", func(dir string) (store, error) { return openFileStoreReference(dir, 0) }},
	} {
		// closeLog releases a log store's file; a reference store holds
		// none open.
		closeLog := func(s store) {
			if ds, ok := s.(*DiskStore); ok {
				ds.log.Close() //nolint:errcheck // only read
			}
		}
		dir := b.TempDir()
		s, err := impl.open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, k := range keys {
			if err := s.Put(k, blob); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(impl.name+"/put", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if err := s.Put(keys[i%entries], blob); err != nil {
					b.Fatal(err)
				}
				i++
			}
		})
		b.Run(impl.name+"/get-hit", func(b *testing.B) {
			b.SetBytes(size)
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				if _, ok := s.Get(keys[i%entries]); !ok {
					b.Fatal("resident entry missed")
				}
				i++
			}
		})
		b.Run(impl.name+"/get-miss", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, ok := s.Get(missing); ok {
					b.Fatal("absent entry hit")
				}
			}
		})
		closeLog(s)
		b.Run(impl.name+"/reopen", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				s, err := impl.open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != entries {
					b.Fatalf("reopened store holds %d entries, want %d", s.Len(), entries)
				}
				closeLog(s)
			}
		})
	}
}

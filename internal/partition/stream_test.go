package partition

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"samr/internal/geom"
)

// packedFrag is the packed form as it shipped before the stream: a
// Fragment in 24 bytes, the corners and the owner as int32, the level
// as a byte. It is the oracle FuzzPacked holds the stream to.
type packedFrag struct {
	x0, y0, x1, y1 int32
	owner          int32
	level          uint8
}

func (f packedFrag) box() geom.Box {
	return geom.NewBox2(int(f.x0), int(f.y0), int(f.x1), int(f.y1))
}

func (f packedFrag) fragment() Fragment {
	return Fragment{Level: int(f.level), Box: f.box(), Owner: int(f.owner)}
}

// packFrag packs f, or refuses it when packedFrag cannot hold it
// exactly: a corner outside int32, a non-planar box, an owner outside
// int32 or a level outside [0, 255].
func packFrag(f Fragment) (packedFrag, error) {
	b := f.Box
	p := packedFrag{
		x0: int32(b.Lo[0]), y0: int32(b.Lo[1]), x1: int32(b.Hi[0]), y1: int32(b.Hi[1]),
		owner: int32(f.Owner), level: uint8(f.Level),
	}
	if p.box() != b || int(p.owner) != f.Owner || int(p.level) != f.Level {
		return packedFrag{}, fmt.Errorf("fragment %v of level %d, owner %d does not fit", b, f.Level, f.Owner)
	}
	return p, nil
}

// randomPackFragment draws a fragment for FuzzPacked: mostly the small
// deltas of real answers, often the edges of what packs (corners at
// ±2^30 and at the int32 limits, owners up to 2^31−1, every level up
// to 255, inverted and empty boxes), and sometimes what does not
// (corners, owners and levels just outside, non-planar boxes).
func randomPackFragment(r *rand.Rand, prev Fragment) Fragment {
	coord := func(near int) int {
		switch r.Intn(8) {
		case 0:
			return []int{-1 << 30, 1 << 30, 1<<30 - 1, math.MinInt32, math.MaxInt32}[r.Intn(5)]
		case 1:
			return []int{math.MinInt32 - 1, math.MaxInt32 + 1, 1 << 40}[r.Intn(3)]
		case 2:
			return r.Intn(1<<31) - 1<<30
		default:
			return near + r.Intn(65) - 32
		}
	}
	x0, y0 := coord(prev.Box.Lo[0]), coord(prev.Box.Lo[1])
	x1, y1 := x0+r.Intn(40)-4, y0+r.Intn(40)-4
	if r.Intn(16) == 0 {
		x1, y1 = coord(x0), coord(y0)
	}
	f := Fragment{Level: prev.Level, Box: geom.NewBox2(x0, y0, x1, y1), Owner: prev.Owner + r.Intn(5) - 2}
	switch r.Intn(10) {
	case 0:
		f.Level = []int{0, 1, 254, 255, r.Intn(256)}[r.Intn(5)]
	case 1:
		f.Level = []int{-1, 256, 1 << 20}[r.Intn(3)]
	case 2:
		f.Owner = r.Intn(1 << 31)
	case 3:
		f.Owner = []int{math.MaxInt32, math.MinInt32, math.MaxInt32 + 1, math.MinInt32 - 1}[r.Intn(4)]
	case 4:
		switch r.Intn(3) {
		case 0:
			f.Box.Dim = 3
		case 1:
			f.Box.Hi[2] = 2
		default:
			f.Box.Lo[2] = -1
		}
	}
	return f
}

// FuzzPacked holds the packed stream to packedFrag, the 24-byte form it
// replaced, on random fragment lists: a fragment is refused by
// Packer.Append exactly when packFrag refuses it, and whatever is kept
// comes back equal, fragment for fragment, through iteration (also
// stopped early), Pack and Unpack, in a stream whose capacity
// is its length.
//
//	go test -run='^$' -fuzz=FuzzPacked -fuzztime=10s ./internal/partition/
func FuzzPacked(f *testing.F) {
	for seed := range int64(8) {
		f.Add(seed, uint8(8*seed))
	}
	f.Add(int64(59), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		nprocs := 1 + r.Intn(64)
		w := NewPacker(nprocs)
		var kept []Fragment
		var ref []packedFrag
		prev := Fragment{Owner: r.Intn(nprocs)}
		for range int(n) {
			frag := randomPackFragment(r, prev)
			pf, refErr := packFrag(frag)
			err := w.Append(frag)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("fragment %v (level %d, owner %d): Append says %v, the reference %v", frag.Box, frag.Level, frag.Owner, err, refErr)
			}
			if err != nil {
				if _, err := Pack(&Assignment{NumProcs: nprocs, Fragments: append(slices.Clone(kept), frag)}); err == nil {
					t.Fatalf("Pack kept fragment %v (level %d, owner %d)", frag.Box, frag.Level, frag.Owner)
				}
				continue
			}
			if pf.fragment() != frag {
				t.Fatalf("the reference does not round-trip %v", frag)
			}
			kept, ref, prev = append(kept, frag), append(ref, pf), frag
		}
		p := w.Packed()
		if p.NumProcs() != nprocs || p.Len() != len(kept) || cap(p.data) != len(p.data) {
			t.Fatalf("Packed: %d procs, %d fragments, %d of %d bytes; want %d procs, %d fragments and no slack",
				p.NumProcs(), p.Len(), len(p.data), cap(p.data), nprocs, len(kept))
		}
		i := 0
		for got := range p.Fragments() {
			if got != ref[i].fragment() {
				t.Fatalf("fragment %d: iterated %+v, the reference %+v", i, got, ref[i].fragment())
			}
			i++
		}
		if i != len(ref) {
			t.Fatalf("iterated %d fragments of %d", i, len(ref))
		}
		if stop := len(ref) / 2; stop > 0 {
			i = 0
			for range p.Fragments() {
				if i++; i == stop {
					break
				}
			}
		}
		a := &Assignment{NumProcs: nprocs, Fragments: kept}
		packed, err := Pack(a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(packed.data, p.data) || cap(packed.data) != len(packed.data) {
			t.Fatal("Pack and Append built different streams, or Pack's has slack")
		}
		if got := p.Unpack(); !reflect.DeepEqual(got, a) {
			t.Fatalf("Unpack: %+v, want %+v", got.Fragments, kept)
		}
	})
}

// TestPackedBytesPerFragment pins the stream's size on real answers:
// every nature+fable answer of the quick traces' distinct snapshots at
// 3 and 16 processors packs to at most 8 bytes a fragment on average
// (packedFrag took 24), and no stored stream, answer or core band,
// keeps capacity past its length.
func TestPackedBytesPerFragment(t *testing.T) {
	const maxBytesPerFragment = 8
	ctx := context.Background()
	nf := NewNatureFable()
	bytes, frags := 0, 0
	noSlack := func(what string, b []byte) {
		if cap(b) != len(b) {
			t.Errorf("%s: a stream of %d bytes keeps capacity %d", what, len(b), cap(b))
		}
	}
	for i, h := range quickHierarchies(t) {
		for _, np := range []int{3, 16} {
			a, err := nf.Partition(ctx, h, np)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Pack(a)
			if err != nil {
				t.Fatal(err)
			}
			noSlack(fmt.Sprintf("snapshot %d at %d processors", i, np), p.data)
			bytes += len(p.data)
			frags += p.Len()
		}
		prep, err := nfPrepOf(newHierIndex(ctx, h), nf.Curve, nf.AtomicUnit, false)
		if err != nil {
			t.Fatal(err)
		}
		noSlack(fmt.Sprintf("snapshot %d hue band", i), prep.hueBand.data)
		for b, band := range prep.bands {
			noSlack(fmt.Sprintf("snapshot %d band %d", i, b), band.data)
		}
	}
	per := float64(bytes) / float64(frags)
	t.Logf("%d fragments in %d bytes: %.2f B a fragment", frags, bytes, per)
	if per > maxBytesPerFragment {
		t.Errorf("%.2f bytes a fragment, want at most %d", per, maxBytesPerFragment)
	}
}

// TestPackConcurrently: Packs running at once share the scratch pool,
// and each still returns its own assignment's stream (run it under
// -race too: a Pack that returned its scratch before copying out of it
// races with the next Pack to take it).
func TestPackConcurrently(t *testing.T) {
	ctx := context.Background()
	nf := NewNatureFable()
	var as []*Assignment
	for _, h := range quickHierarchies(t)[:8] {
		a, err := nf.Partition(ctx, h, 16)
		if err != nil {
			t.Fatal(err)
		}
		as = append(as, a)
	}
	errs := make(chan error, 4)
	for g := range 4 {
		go func() {
			for k := range 200 {
				a := as[(g+k)%len(as)]
				p, err := Pack(a)
				if err == nil && !reflect.DeepEqual(p.Unpack(), a) {
					err = fmt.Errorf("goroutine %d, pack %d: the stream does not unpack to its assignment", g, k)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range 4 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

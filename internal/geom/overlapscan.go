package geom

import (
	"cmp"
	"context"
	"math/bits"
	"slices"
	"sync"
)

// OverlapScan is the box-overlap kernel of the simulator, the
// post-mapper and the migration penalty: two keyed lists of boxes, A
// and B, that the caller fills, and one sweep that hands the caller
// every pair of an A box and a B box under the same key that share
// cells, with the number of cells they share. Every caller keys by
// refinement level, so a scan covers all levels of an assignment or a
// hierarchy at once and pairs never cross levels. sim.Migration sums
// the pairs of two assignments' fragments whose owners differ,
// grid.TotalOverlap every pair of two hierarchies' patches (beta_m's
// numerator), partition.Remap the benefit matrix, and sim.Evaluate its
// halo and footprint exchanges.
//
// The sweep sorts both lists by (key, Lo x) and walks them together:
// the box with the smaller start scans the other list's boxes that
// start inside its x extent, so each overlapping pair is met exactly
// once, with no index to build and no duplicate to remove. Its cost is
// the two sorts plus the candidates whose x extents overlap. Each
// caller's result is an integer sum or a set over the pairs, so the
// visiting order changes no result; the one order Each does promise is
// that every pair of a key is visited before any pair of a larger key.
//
// A scan is scratch: NewOverlapScan takes one from a process-wide pool
// and Release returns it, so a warm scan allocates nothing. It is not
// safe for concurrent use.
type OverlapScan struct {
	a, b  []scanRect
	spare []scanRect // the storage a sort gathers into
	words []uint64   // the packed sort keys
}

// scanRect is one listed box: its planar extent, its key and the id the
// caller gave it.
type scanRect struct {
	key, id        int
	x0, x1, y0, y1 int
}

var overlapScans = sync.Pool{New: func() any { return new(OverlapScan) }}

// NewOverlapScan returns an empty scan from the pool.
func NewOverlapScan() *OverlapScan { return overlapScans.Get().(*OverlapScan) }

// Release empties s and returns it to the pool; s must not be used
// afterwards.
func (s *OverlapScan) Release() {
	s.Reset()
	overlapScans.Put(s)
}

// Reset empties both lists, keeping their storage.
func (s *OverlapScan) Reset() { s.a, s.b = s.a[:0], s.b[:0] }

// ResetA empties list A and keeps list B listed, so one B list serves
// scans against several A lists.
func (s *OverlapScan) ResetA() { s.a = s.a[:0] }

// AddA lists box b on side A under key with the caller's id. An empty
// box shares no cell with anything and is not listed.
func (s *OverlapScan) AddA(key int, b Box, id int) { s.a = appendRect(s.a, key, b, id) }

// AddB lists box b on side B, as AddA does on side A.
func (s *OverlapScan) AddB(key int, b Box, id int) { s.b = appendRect(s.b, key, b, id) }

func appendRect(rs []scanRect, key int, b Box, id int) []scanRect {
	if b.Empty() {
		return rs
	}
	return append(rs, scanRect{key: key, id: id, x0: b.Lo[0], x1: b.Hi[0], y0: b.Lo[1], y1: b.Hi[1]})
}

func compareRects(p, q scanRect) int {
	if c := cmp.Compare(p.key, q.key); c != 0 {
		return c
	}
	return cmp.Compare(p.x0, q.x0)
}

// sort returns rs ordered by (key, Lo x). When the spans of the keys
// and of the x corners and the list's length pack into one word — as
// they do for every hierarchy Validate accepts (corners within ±2^30:
// at most 32 bits of x span and 5 of level) on lists of up to 2^27
// boxes — it sorts those words, a fraction of the cost of a comparator
// sort of the rectangles, and gathers rs into the spare storage, which
// rs then becomes.
func (s *OverlapScan) sort(rs []scanRect) []scanRect {
	if len(rs) < 2 {
		return rs
	}
	k0, k1, x0, x1 := rs[0].key, rs[0].key, rs[0].x0, rs[0].x0
	for _, r := range rs[1:] {
		k0, k1, x0, x1 = min(k0, r.key), max(k1, r.key), min(x0, r.x0), max(x1, r.x0)
	}
	// A span past the int range wraps negative and takes 64 bits.
	kb, xb, pb := bits.Len64(uint64(k1-k0)), bits.Len64(uint64(x1-x0)), bits.Len64(uint64(len(rs)-1))
	if kb+xb+pb > 64 {
		slices.SortFunc(rs, compareRects)
		return rs
	}
	words := s.words[:0]
	for i, r := range rs {
		words = append(words, uint64(r.key-k0)<<(xb+pb)|uint64(r.x0-x0)<<pb|uint64(i))
	}
	slices.Sort(words)
	out := s.spare[:0]
	for _, w := range words {
		out = append(out, rs[w&(1<<pb-1)])
	}
	s.words, s.spare = words, rs
	return out
}

// eachPollPairs bounds the candidate pairs Each compares between two
// polls of its context: a fraction of a millisecond of work, however
// the candidates fall among the boxes.
const eachPollPairs = 1 << 16

// Each calls visit(key, i, j, v) once for every A box of id i and B box
// of id j listed under the same key that share v > 0 cells, every pair
// of a key before any pair of a larger key. It sorts the lists; they
// stay listed, so a second Each visits the same pairs. It polls ctx
// every eachPollPairs candidate pairs and returns ctx's error, having
// visited some of the pairs, when ctx is done; it returns nil once
// every pair is visited. Callers with nothing to cancel pass
// context.Background(), and get nil.
func (s *OverlapScan) Each(ctx context.Context, visit func(key, i, j int, v int64)) error {
	s.a = s.sort(s.a)
	s.b = s.sort(s.b)
	a, b := s.a, s.b
	i, j := 0, 0
	budget := eachPollPairs // candidate pairs until the next poll
	for i < len(a) && j < len(b) {
		// The box that starts first meets every box of the other list
		// that starts inside its x extent; the other list's boxes that
		// started before it have already met it.
		if ra, rb := &a[i], &b[j]; ra.key < rb.key || ra.key == rb.key && ra.x0 <= rb.x0 {
			for k := j; k < len(b) && b[k].key == ra.key && b[k].x0 < ra.x1; k++ {
				if budget--; budget == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
					budget = eachPollPairs
				}
				if v := shared(ra, &b[k]); v > 0 {
					visit(ra.key, ra.id, b[k].id, v)
				}
			}
			i++
		} else {
			for k := i; k < len(a) && a[k].key == rb.key && a[k].x0 < rb.x1; k++ {
				if budget--; budget == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
					budget = eachPollPairs
				}
				if v := shared(&a[k], rb); v > 0 {
					visit(rb.key, a[k].id, rb.id, v)
				}
			}
			j++
		}
	}
	return nil
}

// shared is the overlap kernel on two listed rectangles: it compares
// corners and never subtracts across a gap, as overlap does.
func shared(p, q *scanRect) int64 {
	lo0, hi0 := max(p.x0, q.x0), min(p.x1, q.x1)
	lo1, hi1 := max(p.y0, q.y0), min(p.y1, q.y1)
	if hi0 <= lo0 || hi1 <= lo1 {
		return 0
	}
	return int64(hi0-lo0) * int64(hi1-lo1)
}

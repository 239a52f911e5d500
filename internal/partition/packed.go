package partition

import (
	"encoding/binary"
	"fmt"
	"iter"
	"sync"

	"samr/internal/geom"
)

// The packed form of a fragment list is one byte stream, each fragment
// coded against the one before it (the first against owner 0, corner
// (0, 0) and level 0):
//
//   - a uvarint head: the zigzag owner delta, shifted left one bit,
//     with the low bit set when the level changes;
//   - the new level as one byte, present only when that bit is set;
//   - the zigzag deltas of the lower corner's x and y, as uvarints;
//   - the width and the height as uvarints, taken modulo 2^32 so that
//     an inverted box packs and unpacks exactly too.
//
// On real answers that is about 5 bytes a fragment against a
// Fragment's 72. Validate bounds every level's index space to ±2^30, so
// the corners of every fragment a partitioner makes of a valid
// hierarchy are int32s, and every box the partitioners are given is
// planar with the third component pinned to [0, 1), which the decoder
// restores. Appending refuses whatever does not fit — a corner or an
// owner outside int32, a level outside [0, 255], a non-planar box — so
// a packed fragment always unpacks to the one it was packed from.
//
// It is the repository's one compact fragment: Packed holds whole
// assignments in it for the simulator's step cache and the daemon's
// result cache, and a Nature+Fable core band holds its owner-free
// fragments in it with owner 0, one stream a unit.

// fragBase is what the next fragment of a stream is coded against: the
// fragment before it.
type fragBase struct {
	owner, x0, y0 int32
	level         uint8
}

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendFrag codes f after the fragment c holds and makes f the base,
// or refuses f, leaving b and c as they were, when the stream cannot
// hold it exactly.
func (c *fragBase) appendFrag(b []byte, f Fragment) ([]byte, error) {
	box := f.Box
	x0, y0, x1, y1 := int32(box.Lo[0]), int32(box.Lo[1]), int32(box.Hi[0]), int32(box.Hi[1])
	owner, level := int32(f.Owner), uint8(f.Level)
	if geom.NewBox2(int(x0), int(y0), int(x1), int(y1)) != box || int(owner) != f.Owner || int(level) != f.Level {
		return b, fmt.Errorf("partition: fragment %v of level %d, owner %d does not pack into int32 corners and owner and a byte level",
			box, f.Level, f.Owner)
	}
	head := zigzag(int64(owner)-int64(c.owner)) << 1
	if level != c.level {
		head |= 1
	}
	b = binary.AppendUvarint(b, head)
	if level != c.level {
		b = append(b, level)
	}
	b = binary.AppendUvarint(b, zigzag(int64(x0)-int64(c.x0)))
	b = binary.AppendUvarint(b, zigzag(int64(y0)-int64(c.y0)))
	b = binary.AppendUvarint(b, uint64(uint32(x1-x0)))
	b = binary.AppendUvarint(b, uint64(uint32(y1-y0)))
	*c = fragBase{owner: owner, x0: x0, y0: y0, level: level}
	return b, nil
}

// fragReader decodes a stream from its start, fragment by fragment:
// base is the fragment decoded last, x1 and y1 its upper corner.
type fragReader struct {
	b      []byte
	i      int
	base   fragBase
	x1, y1 int32
}

func (r *fragReader) more() bool { return r.i < len(r.b) }

// next decodes the fragment at the reader's offset; more must hold.
func (r *fragReader) next() Fragment {
	r.advance()
	c := &r.base
	return Fragment{Level: int(c.level), Box: geom.NewBox2(int(c.x0), int(c.y0), int(r.x1), int(r.y1)), Owner: int(c.owner)}
}

// advance decodes the fragment at the reader's offset into base, x1
// and y1. The deltas wrap modulo 2^32, as appendFrag took them.
func (r *fragReader) advance() {
	c := &r.base
	head := r.uvarint()
	if head&1 != 0 {
		c.level = r.b[r.i]
		r.i++
	}
	c.owner += int32(unzigzag(head >> 1))
	c.x0 += int32(unzigzag(r.uvarint()))
	c.y0 += int32(unzigzag(r.uvarint()))
	r.x1 = c.x0 + int32(uint32(r.uvarint()))
	r.y1 = c.y0 + int32(uint32(r.uvarint()))
}

// uvarint reads the uvarint at the reader's offset. The one-byte case,
// most of a real stream, inlines.
func (r *fragReader) uvarint() uint64 {
	if x := r.b[r.i]; x < 0x80 {
		r.i++
		return uint64(x)
	}
	return r.uvarintLong()
}

func (r *fragReader) uvarintLong() uint64 {
	v, n := binary.Uvarint(r.b[r.i:])
	r.i += n
	return v
}

// exact returns a copy of b whose capacity is its length: what a
// stream is stored as once built, so no entry keeps append slack.
func exact(b []byte) []byte {
	c := make([]byte, len(b))
	copy(c, b)
	return c
}

// Packed is an Assignment held as one packed stream: the form in which
// the simulator and the daemon cache assignments, about a fourteenth of
// its size. It is immutable, so every copy of it shares the stream.
type Packed struct {
	numProcs int
	n        int
	data     []byte
}

// Packer builds a Packed fragment by fragment.
type Packer struct {
	numProcs int
	n        int
	base     fragBase
	data     []byte
}

// NewPacker returns a Packer of an assignment of nprocs processors.
func NewPacker(nprocs int) Packer { return Packer{numProcs: nprocs} }

// Append packs f after the fragments before it, or refuses it as Pack
// does and leaves the Packer as it was.
func (w *Packer) Append(f Fragment) error {
	data, err := w.base.appendFrag(w.data, f)
	if err != nil {
		return err
	}
	w.data = data
	w.n++
	return nil
}

// Packed returns what w has packed, in a stream of its own whose
// capacity is its length (nil when w has packed nothing).
func (w *Packer) Packed() Packed {
	p := Packed{numProcs: w.numProcs, n: w.n}
	if w.n > 0 {
		p.data = exact(w.data)
	}
	return p
}

// packBufs holds Pack's scratch streams, so that a Pack allocates only
// the exact copy it returns. A stream past maxPooledStream is dropped.
var packBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledStream = 1 << 20

// Pack packs a, fragment for fragment in order. A fragment the packed
// form cannot hold exactly is an error, never a truncation; every
// assignment of a hierarchy Validate accepts packs.
func Pack(a *Assignment) (Packed, error) {
	buf := packBufs.Get().(*[]byte)
	w := Packer{numProcs: a.NumProcs, data: (*buf)[:0]}
	var err error
	for _, f := range a.Fragments {
		if err = w.Append(f); err != nil {
			break
		}
	}
	var p Packed
	if err == nil {
		p = w.Packed() // copied out before the scratch goes back to the pool
		if p.data == nil && a.Fragments != nil {
			p.data = []byte{} // an empty, not a nil, fragment list
		}
	}
	if cap(w.data) <= maxPooledStream {
		*buf = w.data
		packBufs.Put(buf)
	}
	return p, err
}

// NumProcs is the processor count of the assignment.
func (p Packed) NumProcs() int { return p.numProcs }

// Len is the number of fragments.
func (p Packed) Len() int { return p.n }

// Fragments yields the fragments in the order they were packed.
func (p Packed) Fragments() iter.Seq[Fragment] {
	return func(yield func(Fragment) bool) {
		r := fragReader{b: p.data}
		for r.more() {
			if !yield(r.next()) {
				return
			}
		}
	}
}

// Unpack returns a new Assignment equal to the one p was packed from.
// The caller owns it: nothing of p is shared.
func (p Packed) Unpack() *Assignment {
	a := &Assignment{NumProcs: p.numProcs}
	if p.data != nil {
		a.Fragments = make([]Fragment, 0, p.n)
	}
	for r := (fragReader{b: p.data}); r.more(); {
		a.Fragments = append(a.Fragments, r.next())
	}
	return a
}

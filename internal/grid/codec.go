package grid

import (
	"encoding/binary"
	"fmt"

	"samr/internal/geom"
)

// The geometry codec is the binary spelling of a box and of a
// hierarchy's geometry that the fleet tier seals (session snapshots and
// assignment fragments, internal/tier). Integers are varints. A box is
// its dim, then every geom.MaxDim Lo and every Hi component, so the
// pinned third component is spelled out. A hierarchy is its domain, its
// refinement ratio, its level count, and per level the box count and
// the boxes.
//
// Reader is the strict half. It refuses, rather than decodes, anything
// the encoders would not have written: a varint with redundant bytes, a
// count larger than the bytes left could hold (checked before the slice
// is made, so a short input cannot ask for a large allocation), a box
// CheckLayout refuses, and bytes left over after the value. What it
// accepts re-encodes to the same bytes.

// BoxMinBytes is the least encoded size of a box Reader accepts: a
// one-byte varint for the dim and for each of the 2*MaxDim components.
const BoxMinBytes = 1 + 2*geom.MaxDim

// AppendBox appends b's encoding to buf.
func AppendBox(buf []byte, b geom.Box) []byte {
	buf = binary.AppendUvarint(buf, uint64(b.Dim))
	for _, v := range b.Lo {
		buf = binary.AppendVarint(buf, int64(v))
	}
	for _, v := range b.Hi {
		buf = binary.AppendVarint(buf, int64(v))
	}
	return buf
}

// AppendHierarchy appends the encoding of h's geometry to buf: domain,
// refinement ratio, and every level's box list.
func AppendHierarchy(buf []byte, h *Hierarchy) []byte {
	buf = AppendBox(buf, h.Domain)
	buf = binary.AppendUvarint(buf, uint64(h.RefRatio))
	buf = binary.AppendUvarint(buf, uint64(len(h.Levels)))
	for _, lev := range h.Levels {
		buf = binary.AppendUvarint(buf, uint64(len(lev.Boxes)))
		for _, b := range lev.Boxes {
			buf = AppendBox(buf, b)
		}
	}
	return buf
}

// CheckLayout refuses a box that is not in the one layout every box in
// the program has: two-dimensional, with the third component pinned to
// Lo 0 / Hi 1. The kernels in geom compute in the x-y plane only, so
// every decoder of stored or received geometry (Reader.Box, the .trc
// reader) holds its boxes to this before anything computes on them.
func CheckLayout(b geom.Box) error {
	if b.Dim != 2 || b.Lo[2] != 0 || b.Hi[2] != 1 {
		return fmt.Errorf("grid: box %v: dim %d, third component [%d,%d)", b, b.Dim, b.Lo[2], b.Hi[2])
	}
	return nil
}

// Reader is a strict decoder over one input. The first error sticks:
// after it every read returns a zero value and consumes nothing, and Err
// and Done report it.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Uvarint consumes one unsigned varint in its shortest form.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n > 1 && r.buf[n-1] == 0 {
		r.err = fmt.Errorf("grid: bad varint")
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// varint consumes one zig-zag signed varint in its shortest form.
func (r *Reader) varint() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count checks a declared element count against the bytes left, each
// element taking at least minBytes, and returns it.
func (r *Reader) Count(n uint64, minBytes int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.buf)/minBytes) {
		r.err = fmt.Errorf("grid: count %d exceeds the %d bytes left", n, len(r.buf))
		return 0
	}
	return int(n)
}

// Bytes consumes the next n bytes and returns them; they alias the
// input. It returns nil once the reader has failed.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("grid: %d bytes wanted, %d left", n, len(r.buf))
		return nil
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b
}

// Box consumes one box and holds it to CheckLayout.
func (r *Reader) Box() geom.Box {
	b := geom.Box{Dim: int(r.Uvarint())}
	for d := range b.Lo {
		b.Lo[d] = int(r.varint())
	}
	for d := range b.Hi {
		b.Hi[d] = int(r.varint())
	}
	if r.err == nil {
		r.err = CheckLayout(b)
	}
	return b
}

// Hierarchy consumes one hierarchy's geometry. The result is decoded,
// not validated: Validate is the caller's, as for any hierarchy that
// arrives from outside.
func (r *Reader) Hierarchy() *Hierarchy {
	h := &Hierarchy{Domain: r.Box(), RefRatio: int(r.Uvarint())}
	nLevels := r.Count(r.Uvarint(), 1)
	if r.err != nil {
		return nil
	}
	h.Levels = make([]Level, nLevels)
	for l := range h.Levels {
		nBoxes := r.Count(r.Uvarint(), BoxMinBytes)
		if r.err != nil {
			return nil
		}
		if nBoxes > 0 {
			h.Levels[l].Boxes = make(geom.BoxList, nBoxes)
		}
		for i := range h.Levels[l].Boxes {
			h.Levels[l].Boxes[i] = r.Box()
		}
	}
	if r.err != nil {
		return nil
	}
	return h
}

// Fail records err as the reader's error, unless err is nil or the
// reader has already failed: a caller's own bounds on what it decodes
// stop the reader like its own checks do.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the reader's error, if any.
func (r *Reader) Err() error { return r.err }

// Done returns the reader's error, or one naming the bytes left over
// after a complete decode.
func (r *Reader) Done() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("grid: %d trailing bytes", len(r.buf))
	}
	return r.err
}

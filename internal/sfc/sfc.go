// Package sfc implements the space-filling curves used by domain-based
// SAMR partitioners: the Morton (Z-order) curve and the Hilbert curve in
// two dimensions. Domain-based partitioners linearize the atomic units of
// a composite grid along such a curve and then cut the resulting
// one-dimensional sequence into processor portions; the curve's locality
// determines partition surface (communication) quality.
//
// The paper's hybrid partitioner (Nature+Fable) uses a partially ordered
// space-filling curve; both curves here are fully ordered, and Curve is
// the seam where other orders can be plugged in. There is no 3-D index:
// every hierarchy the partitioners see is two-dimensional
// (grid.Hierarchy.Validate).
package sfc

// Curve enumerates the supported space-filling curve families.
type Curve int

const (
	// Morton is the Z-order curve: bit interleaving of the coordinates.
	Morton Curve = iota
	// Hilbert is the Hilbert curve: locality-preserving, no long jumps.
	Hilbert
	// RowMajor is a degenerate "curve" (lexicographic scan); it is the
	// weakest-locality baseline.
	RowMajor
)

// String returns the curve name.
func (c Curve) String() string {
	switch c {
	case Morton:
		return "morton"
	case Hilbert:
		return "hilbert"
	case RowMajor:
		return "rowmajor"
	}
	return "unknown"
}

// maxOrder is the number of bits per coordinate used when linearizing.
// 21 bits keeps 2*21 = 42 bits of index, comfortably inside int64, and
// supports domains up to 2^21 cells per side.
const maxOrder = 21

// Index returns the one-dimensional position of the 2-D point (x, y)
// along the curve. Coordinates must be non-negative.
func Index(c Curve, x, y int) int64 {
	switch c {
	case Hilbert:
		return hilbertIndex(uint64(x), uint64(y))
	case RowMajor:
		return int64(y)<<maxOrder | int64(x)
	default:
		return mortonIndex(uint64(x), uint64(y))
	}
}

// mortonIndex interleaves the bits of x (even positions) and y (odd).
func mortonIndex(x, y uint64) int64 {
	return int64(spread(x) | spread(y)<<1)
}

// spread inserts a zero bit between every bit of the low 21 bits of v.
func spread(v uint64) uint64 {
	v &= (1 << maxOrder) - 1
	v = (v | v<<16) & 0x0000FFFF0000FFFF
	v = (v | v<<8) & 0x00FF00FF00FF00FF
	v = (v | v<<4) & 0x0F0F0F0F0F0F0F0F
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// hilbertIndex computes the Hilbert curve index of (x, y) on a
// 2^maxOrder x 2^maxOrder grid using the standard rotate-and-flip
// iteration.
func hilbertIndex(x, y uint64) int64 {
	var rx, ry, d uint64
	for s := uint64(1) << (maxOrder - 1); s > 0; s >>= 1 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += s * s * ((3 * rx) ^ ry)
		// Rotate the quadrant.
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
	}
	return int64(d)
}

// HilbertPoint is the inverse of hilbertIndex: it returns the (x, y)
// point at distance d along the curve. Exported for curve-quality tests
// and visualization tools.
func HilbertPoint(d int64) (x, y int) {
	var rx, ry uint64
	t := uint64(d)
	var ux, uy uint64
	for s := uint64(1); s < 1<<maxOrder; s <<= 1 {
		rx = 1 & (t / 2)
		ry = 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				ux = s - 1 - ux
				uy = s - 1 - uy
			}
			ux, uy = uy, ux
		}
		ux += s * rx
		uy += s * ry
		t /= 4
	}
	return int(ux), int(uy)
}

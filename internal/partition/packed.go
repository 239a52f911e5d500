package partition

import (
	"fmt"

	"samr/internal/geom"
	"samr/internal/grid"
)

// packedFrag is a Fragment in 24 bytes against its 72: the corners and
// the owner as int32, the level as a byte. Validate bounds every
// level's index space to ±2^30, so the corners of every fragment a
// partitioner makes of a valid hierarchy fit exactly, and every box the
// partitioners are given is planar with the third component pinned to
// [0, 1), which box restores. packFrag refuses whatever does not fit,
// so a packed fragment always unpacks to the one it was packed from.
//
// It is the repository's one compact fragment: Packed holds whole
// assignments in it for the simulator's step cache and the daemon's
// result cache, and a Nature+Fable core band holds its owner-free
// fragments in it with owner 0.
type packedFrag struct {
	x0, y0, x1, y1 int32
	owner          int32
	level          uint8
}

func (f packedFrag) box() geom.Box {
	return geom.NewBox2(int(f.x0), int(f.y0), int(f.x1), int(f.y1))
}

// packFrag packs f, or refuses it when the packed form cannot hold it
// exactly: a corner outside int32, a non-planar box, an owner outside
// int32 or a level outside [0, 255]. Nothing is ever truncated.
func packFrag(f Fragment) (packedFrag, error) {
	b := f.Box
	p := packedFrag{
		x0: int32(b.Lo[0]), y0: int32(b.Lo[1]), x1: int32(b.Hi[0]), y1: int32(b.Hi[1]),
		owner: int32(f.Owner), level: uint8(f.Level),
	}
	if p.box() != b || int(p.owner) != f.Owner || int(p.level) != f.Level {
		return packedFrag{}, fmt.Errorf("partition: fragment %v of level %d, owner %d does not pack into int32 corners and owner and a byte level",
			b, f.Level, f.Owner)
	}
	return p, nil
}

// Packed is an Assignment held in packed fragments, a third of its
// size: the form in which the simulator and the daemon cache
// assignments. Its fragments are shared by every copy of it, which
// treats them as immutable.
type Packed struct {
	numProcs int
	frags    []packedFrag
}

// MakePacked returns an assignment of nprocs processors and no
// fragments, with room for n that Append fills without growing.
func MakePacked(nprocs, n int) Packed {
	p := Packed{numProcs: nprocs}
	if n > 0 {
		p.frags = make([]packedFrag, 0, n)
	}
	return p
}

// Append packs f after p's fragments, or refuses it as Pack does and
// leaves p as it was.
func (p *Packed) Append(f Fragment) error {
	pf, err := packFrag(f)
	if err != nil {
		return err
	}
	p.frags = append(p.frags, pf)
	return nil
}

// Pack packs a, fragment for fragment in order. A fragment the packed
// form cannot hold exactly (see packFrag) is an error, never a
// truncation; every assignment of a hierarchy Validate accepts packs.
func Pack(a *Assignment) (Packed, error) {
	p := Packed{numProcs: a.NumProcs}
	if a.Fragments != nil {
		p.frags = make([]packedFrag, 0, len(a.Fragments))
	}
	for _, f := range a.Fragments {
		if err := p.Append(f); err != nil {
			return Packed{}, err
		}
	}
	return p, nil
}

// NumProcs is the processor count of the assignment.
func (p Packed) NumProcs() int { return p.numProcs }

// Len is the number of fragments.
func (p Packed) Len() int { return len(p.frags) }

// Fragment returns fragment i as it was packed.
func (p Packed) Fragment(i int) Fragment {
	f := p.frags[i]
	return Fragment{Level: int(f.level), Box: f.box(), Owner: int(f.owner)}
}

// Loads is Assignment.Loads over the packed fragments: the same sums in
// the same order, so the same vector.
func (p Packed) Loads(h *grid.Hierarchy) []int64 {
	loads := make([]int64, p.numProcs)
	for _, f := range p.frags {
		loads[f.owner] += f.box().Volume() * h.StepFactor(int(f.level))
	}
	return loads
}

// Unpack returns a new Assignment equal to the one p was packed from.
// The caller owns it: nothing of p is shared.
func (p Packed) Unpack() *Assignment {
	a := &Assignment{NumProcs: p.numProcs}
	if p.frags != nil {
		a.Fragments = make([]Fragment, len(p.frags))
	}
	for i := range p.frags {
		a.Fragments[i] = p.Fragment(i)
	}
	return a
}

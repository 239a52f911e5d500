// Package trace captures and replays SAMR application traces: the
// sequence of grid-hierarchy snapshots an adaptive run produces,
// independent of any partitioning. This mirrors the Rutgers experimental
// process the paper uses ("this trace captures the state of the SAMR
// grid hierarchy for the application at the regrid step and is
// independent of any partitioning").
//
// A trace is stored as a .trc file (Write, Read; samrtrace writes them)
// in format version 1: the magic "SAMRTRC1", then little-endian 8-byte
// words —
//
//	app        its length, then its bytes
//	header     refinement ratio, max levels, domain box
//	snapshots  their count, then per snapshot its step, its time as
//	           float64 bits and its level count, and per level a box
//	           count and the boxes
//
// — where a box is seven words: dim, then the three Lo and the three Hi
// components. Read holds a file to exactly that, through grid.Reader:
// every count is checked against the bytes left before anything is made
// for it, every box must pass grid.CheckLayout (dim 2, third component
// Lo 0 / Hi 1), and bytes after the last snapshot are refused. So a
// file Read accepts is, byte for byte, what Write writes for the trace
// it returns.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"samr/internal/geom"
	"samr/internal/grid"
)

// Snapshot is the hierarchy state at the end of one coarse time step.
type Snapshot struct {
	// Step is the coarse time-step index (0-based).
	Step int
	// Time is the physical simulation time at the snapshot.
	Time float64
	// H is the grid hierarchy; snapshots own their hierarchies.
	H *grid.Hierarchy
}

// Trace is a full application run: metadata plus ordered snapshots.
type Trace struct {
	// App names the application kernel (e.g. "BL2D").
	App string
	// RefRatio is the space/time refinement factor.
	RefRatio int
	// MaxLevels is the level budget the run was configured with.
	MaxLevels int
	// Domain is the base-level index-space box.
	Domain geom.Box
	// Snapshots are ordered by Step.
	Snapshots []Snapshot
}

// Append adds a snapshot, deep-copying the hierarchy so later driver
// mutations cannot corrupt the trace.
func (t *Trace) Append(step int, time float64, h *grid.Hierarchy) {
	t.Snapshots = append(t.Snapshots, Snapshot{Step: step, Time: time, H: h.Clone()})
}

// Len returns the number of snapshots.
func (t *Trace) Len() int { return len(t.Snapshots) }

// Validate checks every snapshot's hierarchy invariants and the step
// ordering.
func (t *Trace) Validate() error {
	for i, s := range t.Snapshots {
		if err := s.H.Validate(); err != nil {
			return fmt.Errorf("trace: snapshot %d: %w", i, err)
		}
		if i > 0 && s.Step <= t.Snapshots[i-1].Step {
			return fmt.Errorf("trace: snapshot %d step %d not increasing", i, s.Step)
		}
	}
	return nil
}

// magic identifies the binary trace format; the trailing digit is the
// format version.
var magic = [8]byte{'S', 'A', 'M', 'R', 'T', 'R', 'C', '1'}

// The least sizes of the format's items, which Read checks counts by.
const (
	wordLen     = 8
	boxLen      = 7 * wordLen
	snapshotLen = 3 * wordLen // step, time, level count
)

// Write serializes the trace in the versioned binary format.
func Write(w io.Writer, t *Trace) error {
	buf := append([]byte(nil), magic[:]...)
	buf = appendWord(buf, int64(len(t.App)))
	buf = append(buf, t.App...)
	buf = appendWord(buf, int64(t.RefRatio))
	buf = appendWord(buf, int64(t.MaxLevels))
	buf = appendBox(buf, t.Domain)
	buf = appendWord(buf, int64(len(t.Snapshots)))
	for _, s := range t.Snapshots {
		buf = appendWord(buf, int64(s.Step))
		buf = appendWord(buf, int64(math.Float64bits(s.Time)))
		buf = appendWord(buf, int64(len(s.H.Levels)))
		for _, lev := range s.H.Levels {
			buf = appendWord(buf, int64(len(lev.Boxes)))
			for _, b := range lev.Boxes {
				buf = appendBox(buf, b)
			}
		}
	}
	_, err := w.Write(buf)
	return err
}

func appendWord(buf []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(v))
}

func appendBox(buf []byte, b geom.Box) []byte {
	buf = appendWord(buf, int64(b.Dim))
	for _, v := range b.Lo {
		buf = appendWord(buf, int64(v))
	}
	for _, v := range b.Hi {
		buf = appendWord(buf, int64(v))
	}
	return buf
}

// Read deserializes a trace written by Write, and refuses anything
// Write would not have written (see the package comment).
func Read(r io.Reader) (*Trace, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(data) < len(magic) || [8]byte(data) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", data[:min(len(data), len(magic))])
	}
	d := decoder{grid.NewReader(data[len(magic):])}
	t := &Trace{App: string(d.Bytes(d.count(1)))}
	t.RefRatio, t.MaxLevels = int(d.word()), int(d.word())
	t.Domain = d.box()
	if n := d.count(snapshotLen); n > 0 {
		t.Snapshots = make([]Snapshot, n)
	}
	for i := range t.Snapshots {
		s := &t.Snapshots[i]
		s.Step, s.Time = int(d.word()), math.Float64frombits(uint64(d.word()))
		s.H = &grid.Hierarchy{Domain: t.Domain, RefRatio: t.RefRatio, Levels: make([]grid.Level, d.count(wordLen))}
		for l := range s.H.Levels {
			boxes := make(geom.BoxList, d.count(boxLen))
			for j := range boxes {
				boxes[j] = d.box()
			}
			s.H.Levels[l].Boxes = boxes
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// decoder reads the format's words through grid's strict reader.
type decoder struct{ *grid.Reader }

func (d decoder) word() int64 {
	b := d.Bytes(wordLen)
	if b == nil {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// count reads an item count and checks it against the bytes left, each
// item taking at least minBytes.
func (d decoder) count(minBytes int) int { return d.Count(uint64(d.word()), minBytes) }

func (d decoder) box() geom.Box {
	b := geom.Box{Dim: int(d.word())}
	for i := range b.Lo {
		b.Lo[i] = int(d.word())
	}
	for i := range b.Hi {
		b.Hi[i] = int(d.word())
	}
	if d.Err() == nil {
		d.Fail(grid.CheckLayout(b))
	}
	return b
}

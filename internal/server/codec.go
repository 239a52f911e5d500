package server

import (
	"bytes"
	"encoding/hex"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
)

// The partition wire codec (see "Wire codec" in the package doc): a
// recogniser for the canonical subset of the three partition-shaped
// requests, with encoding/json behind it for everything else, and an
// appending encoder for their answer.

// wireBufs recycles the request and response buffers of the codec.
var wireBufs = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 32<<10)) }}

// putWireBuf returns buf to the pool, unless it grew past 1 MiB: one
// deep hierarchy must not pin its memory for the life of the process.
func putWireBuf(buf *bytes.Buffer) {
	if buf.Cap() <= 1<<20 {
		buf.Reset()
		wireBufs.Put(buf)
	}
}

// decodeRequest fills v — a *PartitionRequest, *SessionCreateRequest or
// *SessionStepRequest — from the request body, answering what decode
// answers when it cannot.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := wireBufs.Get().(*bytes.Buffer)
	defer putWireBuf(buf)
	// Reading at most the limit never trips it; a body that fills it, or
	// whose read fails, is decode's to answer.
	_, err := buf.ReadFrom(io.LimitReader(r.Body, s.maxBody))
	if err == nil && int64(buf.Len()) < s.maxBody && recognise(buf.Bytes(), v) {
		return true
	}
	return decode(w, io.MultiReader(buf, r.Body), v)
}

// recognise fills v from buf and reports true when buf is one request
// of v's type in the canonical subset, whitespace around it; otherwise
// it leaves v untouched.
func recognise(buf []byte, v any) bool {
	c := &canon{buf: buf}
	switch v := v.(type) {
	case *PartitionRequest:
		if req := c.partitionRequest(partitionKeys); c.done() {
			*v = req
			return true
		}
	case *SessionCreateRequest:
		if req := c.partitionRequest(partitionKeys[:3]); c.done() {
			*v = SessionCreateRequest{Hierarchy: req.Hierarchy, Partitioner: req.Partitioner, NProcs: req.NProcs}
			return true
		}
	case *SessionStepRequest:
		if req := c.stepRequest(); c.done() {
			*v = req
			return true
		}
	}
	return false
}

// The keys of each object the recogniser reads, as the json tags spell
// them; SessionCreateRequest has the first three of PartitionRequest's.
var (
	partitionKeys = []string{"hierarchy", "partitioner", "nprocs", "hierarchies"}
	hierarchyKeys = []string{"domain", "ref_ratio", "levels"}
	boxKeys       = []string{"dim", "lo", "hi"}
	stepKeys      = []string{"levels", "base"}
	levelOpKeys   = []string{"op", "boxes"}
)

// canon is the recogniser's cursor over a body. Once bad is set the body
// has left the canonical subset: what is read after that is discarded.
type canon struct {
	buf []byte
	pos int
	bad bool
}

// next skips insignificant whitespace and returns the byte at the
// cursor, or 0 at the end of the body and once bad.
func (c *canon) next() byte {
	for ; c.pos < len(c.buf) && !c.bad; c.pos++ {
		if b := c.buf[c.pos]; b != ' ' && b != '\t' && b != '\n' && b != '\r' {
			return b
		}
	}
	return 0
}

// eat consumes b if it comes next.
func (c *canon) eat(b byte) bool {
	if c.next() == b {
		c.pos++
		return true
	}
	return false
}

// need consumes b, which must come next.
func (c *canon) need(b byte) {
	if !c.eat(b) {
		c.bad = true
	}
}

// done reports whether the body was canonical and nothing but
// whitespace follows the value.
func (c *canon) done() bool { return c.next() == 0 && !c.bad && c.pos == len(c.buf) }

// str reads a string of printable ASCII without escapes and returns its
// bytes, which alias the body.
func (c *canon) str() []byte {
	c.need('"')
	for start := c.pos; c.pos < len(c.buf) && !c.bad; c.pos++ {
		switch b := c.buf[c.pos]; {
		case b == '"':
			c.pos++
			return c.buf[start : c.pos-1]
		case b < 0x20 || b == '\\' || b >= 0x80:
			c.bad = true
		}
	}
	c.bad = true
	return nil
}

// int reads an integer without fraction, exponent or leading zeros, of
// at most 18 digits, so that it fits an int as it does for
// encoding/json.
func (c *canon) int() int {
	neg := c.eat('-')
	start, n := c.pos, 0
	for ; c.pos < len(c.buf) && c.buf[c.pos] >= '0' && c.buf[c.pos] <= '9'; c.pos++ {
		n = n*10 + int(c.buf[c.pos]-'0')
	}
	digits := c.pos - start
	if digits == 0 || digits > 18 || digits > 1 && c.buf[start] == '0' ||
		c.pos < len(c.buf) && (c.buf[c.pos] == '.' || c.buf[c.pos]|0x20 == 'e') {
		c.bad = true
	}
	if neg {
		return -n
	}
	return n
}

// key reads an object key among keys that seen does not hold yet, and
// the colon after it, adding it to seen and returning its index (-1,
// with bad set, for any other key).
func (c *canon) key(keys []string, seen *uint) int {
	name := c.str()
	for k, key := range keys {
		if string(name) == key && *seen&(1<<k) == 0 {
			*seen |= 1 << k
			c.need(':')
			return k
		}
	}
	c.bad = true
	return -1
}

// object reads an object whose keys are among keys, each at most once,
// calling field with the key's index and the cursor before its value.
func (c *canon) object(keys []string, field func(int)) {
	c.need('{')
	if c.eat('}') {
		return
	}
	var seen uint
	for !c.bad {
		k := c.key(keys, &seen)
		if k < 0 {
			return
		}
		field(k)
		if !c.eat(',') {
			c.need('}')
			return
		}
	}
}

// array reads an array, calling elem with the cursor before each
// element.
func (c *canon) array(elem func()) {
	c.need('[')
	if c.eat(']') {
		return
	}
	for !c.bad {
		elem()
		if !c.eat(',') {
			c.need(']')
			return
		}
	}
}

// The readers of the innermost, most repeated values — a box, its
// corners, a list of boxes — are plain loops rather than object and
// array callbacks: a deep hierarchy is mostly boxes, and a cache hit
// spends much of its time reading them.

// pair reads an array of exactly two integers into v.
func (c *canon) pair(v *[2]int) {
	c.need('[')
	v[0] = c.int()
	c.need(',')
	v[1] = c.int()
	c.need(']')
}

// box reads a wire box with all three keys, each once, dim 2, and
// two-element lo and hi: the boxes Box.toGeom accepts.
func (c *canon) box() geom.Box {
	var dim int
	var lo, hi [2]int
	var seen uint
	c.need('{')
	for i := range boxKeys {
		if i > 0 {
			c.need(',')
		}
		switch c.key(boxKeys, &seen) {
		case 0:
			dim = c.int()
		case 1:
			c.pair(&lo)
		case 2:
			c.pair(&hi)
		}
	}
	c.need('}')
	if dim != 2 {
		c.bad = true
	}
	return geom.NewBox2(lo[0], lo[1], hi[0], hi[1])
}

// boxes reads an array of wire boxes into a non-nil list, as the wire
// conversions make it.
func (c *canon) boxes() geom.BoxList {
	out := geom.BoxList{}
	c.need('[')
	if c.eat(']') {
		return out
	}
	for !c.bad {
		out = append(out, c.box())
		if !c.eat(',') {
			c.need(']')
			break
		}
	}
	return out
}

// hierarchy reads a wire hierarchy with a domain straight into the grid
// form Hierarchy.geometry would give, unvalidated.
func (c *canon) hierarchy() Hierarchy {
	h := &grid.Hierarchy{}
	domain := false
	c.object(hierarchyKeys, func(k int) {
		switch k {
		case 0:
			h.Domain, domain = c.box(), true
		case 1:
			h.RefRatio = c.int()
		case 2:
			c.array(func() { h.Levels = append(h.Levels, grid.Level{Boxes: c.boxes()}) })
		}
	})
	if !domain {
		c.bad = true
	}
	return Hierarchy{pre: h}
}

// partitionRequest reads a PartitionRequest restricted to keys.
func (c *canon) partitionRequest(keys []string) (req PartitionRequest) {
	c.object(keys, func(k int) {
		switch k {
		case 0:
			h := c.hierarchy()
			req.Hierarchy = &h
		case 1:
			req.Partitioner = string(c.str())
		case 2:
			req.NProcs = c.int()
		case 3:
			req.Hierarchies = []Hierarchy{}
			c.array(func() { req.Hierarchies = append(req.Hierarchies, c.hierarchy()) })
		}
	})
	return req
}

// stepRequest reads a SessionStepRequest straight into the deltas
// SessionStepRequest.deltas would give.
func (c *canon) stepRequest() (req SessionStepRequest) {
	req.pre = []grid.LevelDelta{}
	c.object(stepKeys, func(k int) {
		switch k {
		case 0:
			c.array(func() { req.pre = append(req.pre, c.levelOp()) })
		case 1:
			req.Base = string(c.str())
		}
	})
	return req
}

// levelOp reads one level's op as its delta. An op deltas refuses — an
// unknown one, a keep that carries boxes — is not canonical, so that
// decode and deltas word the refusal.
func (c *canon) levelOp() grid.LevelDelta {
	var op []byte
	boxes := geom.BoxList{}
	c.object(levelOpKeys, func(k int) {
		switch k {
		case 0:
			op = c.str()
		case 1:
			boxes = c.boxes()
		}
	})
	switch {
	case string(op) == LevelKeep && len(boxes) == 0:
		return grid.Keep()
	case string(op) == LevelReplace:
		return grid.Replace(boxes)
	}
	c.bad = true
	return grid.LevelDelta{}
}

// writePartitionResponse writes the 200 answer of a partition-shaped
// route.
func writePartitionResponse(w http.ResponseWriter, name string, nprocs int, outs []partitionOut) {
	buf := wireBufs.Get().(*bytes.Buffer)
	defer putWireBuf(buf)
	buf.Write(appendPartitionResponse(buf.AvailableBuffer(), name, nprocs, outs)) // keeps any growth
	w.Header().Set("Content-Type", "application/json")
	// With a length net/http sends the body as is; without one it sends
	// it chunked, and the client waits on a third write for the
	// terminating chunk.
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) //nolint:errcheck // client gone is client's problem
}

// appendPartitionResponse appends what json.NewEncoder wrote for the
// PartitionResponse of outs, newline included: the PartitionResult
// fields in struct order, loads computed once. No string needs escaping:
// a signature is hex, a name is canonical (codec_test.go holds every
// Name() the parser gives to that) and a disposition is a constant.
func appendPartitionResponse(b []byte, name string, nprocs int, outs []partitionOut) []byte {
	b = append(b, `{"results":[`...)
	for i, o := range outs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"signature":"`...)
		b = hex.AppendEncode(b, o.sig[:])
		b = append(b, `","partitioner":"`...)
		b = append(b, name...)
		b = append(b, `","nprocs":`...)
		b = strconv.AppendInt(b, int64(nprocs), 10)
		b = append(b, `,"fragments":[`...)
		for j := range o.a.Len() {
			f := o.a.Fragment(j)
			if j > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"level":`...)
			b = strconv.AppendInt(b, int64(f.Level), 10)
			b = append(b, `,"box":{"dim":`...)
			b = strconv.AppendInt(b, int64(f.Box.Dim), 10)
			b = appendInts(append(b, `,"lo":`...), f.Box.Lo[:f.Box.Dim])
			b = appendInts(append(b, `,"hi":`...), f.Box.Hi[:f.Box.Dim])
			b = append(b, `},"owner":`...)
			b = strconv.AppendInt(b, int64(f.Owner), 10)
			b = append(b, '}')
		}
		loads := o.a.Loads(o.h)
		b = appendInts(append(b, `],"loads":`...), loads)
		b = appendFloat(append(b, `,"imbalance":`...), partition.ImbalanceOf(loads))
		b = strconv.AppendBool(append(b, `,"cached":`...), o.disp == CacheHit || o.disp == CacheTier)
		b = append(b, `,"cache":"`...)
		b = append(b, o.disp...)
		b = append(b, `"}`...)
	}
	return append(b, "]}\n"...)
}

// appendInts appends v as a JSON array.
func appendInts[T int | int64](b []byte, v []T) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json does: the shortest
// decimal that round-trips, in 'e' form below 1e-6 and from 1e21 on
// (zero aside), with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

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
// requests, which reads every box into the request's pooled corner list
// (json.Marshal's spelling of a box through exactBox, any other through
// the key-by-key reader), with encoding/json behind it for everything
// else; and an appending encoder for their answer.

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

// corners is one request's geometry as the recogniser reads it, in one
// flat list: a box is its four corners x0, y0, x1, y1, and a list of
// boxes (a level) its count followed by its boxes. A hierarchy the
// recogniser read is a run of levels in the list (flatHierarchy); a
// step's replaced levels pass through it on their way to exact-size
// box lists.
type corners struct{ v []int }

var cornerBufs = sync.Pool{New: func() any { return &corners{v: make([]int, 0, 4<<10)} }}

// getCorners takes a corner list from the pool for one request, which
// returns it with putCorners once nothing reads it any more.
func getCorners() *corners { return cornerBufs.Get().(*corners) }

// putCorners returns cs to the pool, unless it grew past 1 MiB, as
// putWireBuf does.
func putCorners(cs *corners) {
	if cap(cs.v) <= 1<<20/8 {
		cs.v = cs.v[:0]
		cornerBufs.Put(cs)
	}
}

// level splits the list of boxes at the head of a run of the corner
// list from the rest of the run.
func level(run []int) (geom.Corners, []int) {
	end := 1 + 4*run[0]
	return geom.Corners(run[1:end]), run[end:]
}

// flatHierarchy is a hierarchy the recogniser read: its domain and
// ratio, and its levels as the run cs.v[from:to].
type flatHierarchy struct {
	cs       *corners
	from, to int
	levels   int
	domain   geom.Box
	ratio    int
}

// hierarchy builds f's grid form, unvalidated, with exact-size lists:
// what Hierarchy.geometry gives for the same body decoded.
func (f *flatHierarchy) hierarchy() *grid.Hierarchy {
	h := &grid.Hierarchy{Domain: f.domain, RefRatio: f.ratio}
	if f.levels > 0 {
		h.Levels = make([]grid.Level, f.levels)
	}
	run := f.cs.v[f.from:f.to]
	for l := range h.Levels {
		var boxes geom.Corners
		boxes, run = level(run)
		h.Levels[l].Boxes = boxes.BoxList()
	}
	return h
}

// signature is f.hierarchy().Signature(), hashed from the corners.
func (f *flatHierarchy) signature() geom.Signature {
	return grid.SignLevels(f.domain, f.ratio, f.levels, func(b []byte) []byte {
		for run := f.cs.v[f.from:f.to]; len(run) > 0; {
			var boxes geom.Corners
			boxes, run = level(run)
			b = boxes.AppendEncoding(b)
		}
		return b
	})
}

// decodeRequest fills v — a *PartitionRequest, *SessionCreateRequest or
// *SessionStepRequest — from the request body, answering what decode
// answers when it cannot. A recognised hierarchy reads from cs, which
// the caller keeps until it is done with v.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any, cs *corners) bool {
	buf := wireBufs.Get().(*bytes.Buffer)
	defer putWireBuf(buf)
	// Reading at most the limit never trips it; a body that fills it, or
	// whose read fails, is decode's to answer.
	_, err := buf.ReadFrom(io.LimitReader(r.Body, s.maxBody))
	if err == nil && int64(buf.Len()) < s.maxBody && recognise(buf.Bytes(), v, cs) {
		return true
	}
	return decode(w, io.MultiReader(buf, r.Body), v)
}

// recognise fills v from buf, reading its boxes into cs, and reports
// true when buf is one request of v's type in the canonical subset,
// whitespace around it; otherwise it leaves v untouched.
func recognise(buf []byte, v any, cs *corners) bool {
	c := &canon{buf: buf, cs: cs}
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

// canon is the recogniser's cursor over a body, and the corner list it
// reads boxes into. Once bad is set the body has left the canonical
// subset: what is read after that is discarded.
type canon struct {
	buf []byte
	pos int
	bad bool
	cs  *corners
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

// scanInt reads the integer at buf[p:], without whitespace before it,
// returning it and the position after it. ok is false unless it has no
// fraction, exponent or leading zeros and at most 18 digits, so that it
// fits an int as it does for encoding/json.
func scanInt(buf []byte, p int) (n, end int, ok bool) {
	neg := p < len(buf) && buf[p] == '-'
	if neg {
		p++
	}
	start := p
	for ; p < len(buf) && buf[p]-'0' <= 9; p++ {
		n = n*10 + int(buf[p]-'0')
	}
	digits := p - start
	ok = digits > 0 && digits <= 18 && (digits == 1 || buf[start] != '0') &&
		(p == len(buf) || buf[p] != '.' && buf[p]|0x20 != 'e')
	if neg {
		n = -n
	}
	return n, p, ok
}

// int reads an integer as scanInt does, after any whitespace.
func (c *canon) int() int {
	c.next()
	n, end, ok := scanInt(c.buf, c.pos)
	c.pos = end
	if !ok {
		c.bad = true
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

// The literals of a box spelled as json.Marshal spells it,
// {"dim":2,"lo":[x0,y0],"hi":[x1,y1]}, around and between its corners.
const (
	exactBoxOpen  = `{"dim":2,"lo":[`
	exactBoxHi    = `],"hi":[`
	exactBoxClose = `]}`
)

// exactBox reads a box spelled exactly as json.Marshal spells it, with
// no whitespace, appending its corners; it reports false, the cursor
// unmoved, for any other spelling.
func (c *canon) exactBox() bool {
	b, p := c.buf, c.pos
	if len(b)-p < len(exactBoxOpen) || string(b[p:p+len(exactBoxOpen)]) != exactBoxOpen {
		return false
	}
	p += len(exactBoxOpen)
	var k [4]int
	for i := range k {
		var ok bool
		if k[i], p, ok = scanInt(b, p); !ok {
			return false
		}
		switch i {
		case 0, 2:
			ok = p < len(b) && b[p] == ','
			p++
		case 1:
			ok = len(b)-p >= len(exactBoxHi) && string(b[p:p+len(exactBoxHi)]) == exactBoxHi
			p += len(exactBoxHi)
		case 3:
			ok = len(b)-p >= len(exactBoxClose) && string(b[p:p+len(exactBoxClose)]) == exactBoxClose
			p += len(exactBoxClose)
		}
		if !ok {
			return false
		}
	}
	c.pos = p
	c.cs.v = append(c.cs.v, k[:]...)
	return true
}

// pair reads an array of exactly two integers into v.
func (c *canon) pair(v *[2]int) {
	c.need('[')
	v[0] = c.int()
	c.need(',')
	v[1] = c.int()
	c.need(']')
}

// box reads a wire box with all three keys, each once, dim 2, and
// two-element lo and hi — the boxes Box.toGeom accepts — and appends
// its corners. The exact spelling takes exactBox; any other is read
// key by key.
func (c *canon) box() {
	if c.exactBox() {
		return
	}
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
	c.cs.v = append(c.cs.v, lo[0], lo[1], hi[0], hi[1])
}

// soleBox reads one wire box and returns it, leaving the corner list as
// it was.
func (c *canon) soleBox() geom.Box {
	c.box()
	n := len(c.cs.v) - 4
	v := c.cs.v[n:]
	c.cs.v = c.cs.v[:n]
	return geom.NewBox2(v[0], v[1], v[2], v[3])
}

// boxes reads an array of wire boxes into the corner list as a list:
// its count, then its boxes.
func (c *canon) boxes() {
	at := len(c.cs.v)
	c.cs.v = append(c.cs.v, 0)
	c.need('[')
	if c.eat(']') {
		return
	}
	for n := 1; !c.bad; n++ {
		c.box()
		c.cs.v[at] = n
		if !c.eat(',') {
			c.need(']')
			return
		}
	}
}

// hierarchy reads a wire hierarchy with a domain as a run of levels in
// the corner list, unvalidated.
func (c *canon) hierarchy() Hierarchy {
	f := flatHierarchy{cs: c.cs}
	domain := false
	c.object(hierarchyKeys, func(k int) {
		switch k {
		case 0:
			f.domain, domain = c.soleBox(), true
		case 1:
			f.ratio = c.int()
		case 2:
			f.from = len(c.cs.v)
			c.array(func() { c.boxes(); f.levels++ })
			f.to = len(c.cs.v)
		}
	})
	if !domain {
		c.bad = true
	}
	return Hierarchy{pre: f}
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

// levelOp reads one level's op as its delta, a replaced level's boxes
// as an exact-size list; they pass through the corner list, which is
// left as it was. An op deltas refuses — an unknown one, a keep that
// carries boxes — is not canonical, so that decode and deltas word the
// refusal.
func (c *canon) levelOp() grid.LevelDelta {
	var op []byte
	at := len(c.cs.v)
	c.cs.v = append(c.cs.v, 0) // no boxes unless they come
	c.object(levelOpKeys, func(k int) {
		switch k {
		case 0:
			op = c.str()
		case 1:
			c.cs.v = c.cs.v[:at]
			c.boxes()
		}
	})
	if c.bad {
		return grid.LevelDelta{}
	}
	given, _ := level(c.cs.v[at:])
	boxes := given.BoxList()
	c.cs.v = c.cs.v[:at]
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
// fields in struct order, each answer's stream decoded once for both its
// fragments and its loads. No string needs escaping:
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
		b = appendInt(b, nprocs)
		b = append(b, `,"fragments":[`...)
		// The loads sum on the decode that writes the fragments, so a
		// hit walks its stream once; a level's step factor is taken
		// where the level changes.
		loads := make([]int64, o.a.NumProcs())
		level, steps := 0, int64(1)
		j := 0
		for f := range o.a.Fragments() {
			if j++; j > 1 {
				b = append(b, ',')
			}
			if f.Level != level {
				level, steps = f.Level, grid.StepFactor(o.ratio, f.Level)
			}
			loads[f.Owner] += f.Box.Volume() * steps
			// A packed fragment is planar: partition.Pack refuses any
			// other.
			b = append(b, `{"level":`...)
			b = appendInt(b, f.Level)
			b = append(b, `,"box":{"dim":2,"lo":[`...)
			b = append(appendInt(b, f.Box.Lo[0]), ',')
			b = appendInt(b, f.Box.Lo[1])
			b = append(b, `],"hi":[`...)
			b = append(appendInt(b, f.Box.Hi[0]), ',')
			b = appendInt(b, f.Box.Hi[1])
			b = append(b, `]},"owner":`...)
			b = appendInt(b, f.Owner)
			b = append(b, '}')
		}
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
func appendInts(b []byte, v []int64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendInt(b, x)
	}
	return append(b, ']')
}

// digitPairs spells 00 to 99, two bytes each.
var digitPairs = func() (t [200]byte) {
	for i := range 100 {
		t[2*i], t[2*i+1] = byte('0'+i/10), byte('0'+i%10)
	}
	return t
}()

// appendInt appends x in decimal, as strconv.AppendInt does. Below
// 10000 — a fragment's level, corners and owner, as a rule — it writes
// from the two-digit table; a negative or larger x goes to strconv.
func appendInt[T int | int64](b []byte, x T) []byte {
	if x < 0 || x >= 10000 {
		return strconv.AppendInt(b, int64(x), 10)
	}
	u := uint(x)
	switch {
	case u < 10:
		return append(b, byte('0'+u))
	case u < 100:
		return append(b, digitPairs[2*u], digitPairs[2*u+1])
	case u < 1000:
		hi, lo := u/100, u%100
		return append(b, byte('0'+hi), digitPairs[2*lo], digitPairs[2*lo+1])
	}
	hi, lo := u/100, u%100
	return append(b, digitPairs[2*hi], digitPairs[2*hi+1], digitPairs[2*lo], digitPairs[2*lo+1])
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

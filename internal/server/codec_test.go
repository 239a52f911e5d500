package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"samr/internal/apps"
	"samr/internal/geom"
	"samr/internal/grid"
	"samr/internal/partition"
	"samr/internal/trace"
)

// buildPartitionResult is the result builder the partition-shaped routes
// used before the codec: with json.NewEncoder it is the oracle the
// encoder is held to, byte for byte.
func buildPartitionResult(h *grid.Hierarchy, sig geom.Signature, name string, nprocs int, a *partition.Assignment, disp string) PartitionResult {
	res := PartitionResult{
		Signature:   sig.String(),
		Partitioner: name,
		NProcs:      nprocs,
		Fragments:   make([]Fragment, len(a.Fragments)),
		Loads:       a.Loads(h),
		Imbalance:   a.Imbalance(h),
		Cached:      disp == CacheHit || disp == CacheTier,
		Cache:       disp,
	}
	for j, f := range a.Fragments {
		res.Fragments[j] = Fragment{Level: f.Level, Box: fromGeomBox(f.Box), Owner: f.Owner}
	}
	return res
}

// oracleResponse is what writeJSON wrote before the codec for outs,
// each an answer for h.
func oracleResponse(tb testing.TB, h *grid.Hierarchy, name string, nprocs int, outs []partitionOut) []byte {
	resp := PartitionResponse{Results: make([]PartitionResult, len(outs))}
	for i, o := range outs {
		resp.Results[i] = buildPartitionResult(h, o.sig, name, nprocs, o.a.Unpack(), o.disp)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// raceEnabled is set by race_test.go under the race detector.
var raceEnabled bool

var dispositions = []string{CacheHit, CacheMiss, CacheShared, CacheTier}

// TestEncoderMatchesJSON: over every distinct snapshot of the four quick
// traces, every family, processor counts 1, 3, 16 and 37 and every
// disposition, the codec's answer is the oracle's, byte for byte, alone
// and as a batch. The oracle's loads are Assignment.Loads of the
// unpacked answer, the sums the codec takes on its one decode of the
// stream, in the same order.
func TestEncoderMatchesJSON(t *testing.T) {
	ctx := context.Background()
	answers := 0
	for _, app := range apps.Names {
		tr, err := apps.QuickTrace(ctx, app)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[geom.Signature]bool{}
		for _, snap := range tr.Snapshots {
			h, sig := snap.H, snap.H.Signature()
			if seen[sig] {
				continue
			}
			seen[sig] = true
			for _, spec := range []string{"domain", "patch-lpt", "nature+fable", "postmap(domain-morton-u4)"} {
				for _, np := range []int{1, 3, 16, 37} {
					p, err := ParsePartitioner(spec)
					if err != nil {
						t.Fatal(err)
					}
					a, err := packed(p.Partition(ctx, h, np))
					if err != nil {
						t.Fatal(err)
					}
					var outs []partitionOut
					for _, d := range dispositions {
						outs = append(outs, partitionOut{ratio: h.RefRatio, sig: sig, a: a, disp: d})
					}
					for i := range outs {
						checkEncoding(t, h, p.Name(), np, outs[i:i+1])
					}
					checkEncoding(t, h, p.Name(), np, outs)
					answers++
				}
			}
		}
	}
	if answers < 100 {
		t.Fatalf("only %d answers compared", answers)
	}
}

// TestServedAnswersMatchOracle: every way a partition answer is served
// — a miss, a hit, a shared flight, a tier hit, a mixed batch, a
// session step and a postmap session step — answers encoding/json's
// bytes for a fresh partitioner run's unpacked assignment (the form the
// result cache no longer holds), with the disposition, signature and
// content-type headers that answer makes.
func TestServedAnswersMatchOracle(t *testing.T) {
	ctx := context.Background()
	tr, err := apps.QuickTrace(ctx, "RM2D")
	if err != nil {
		t.Fatal(err)
	}
	var hs []*grid.Hierarchy
	seen := map[geom.Signature]bool{}
	for _, snap := range tr.Snapshots {
		if sig := snap.H.Signature(); !seen[sig] && len(hs) < 4 {
			seen[sig] = true
			hs = append(hs, snap.H)
		}
	}
	type answer struct {
		h    *grid.Hierarchy
		a    *partition.Assignment
		disp string
	}
	check := func(what string, rec *httptest.ResponseRecorder, name string, nprocs int, want ...answer) {
		t.Helper()
		resp := PartitionResponse{Results: make([]PartitionResult, len(want))}
		disp := want[0].disp
		for i, w := range want {
			resp.Results[i] = buildPartitionResult(w.h, w.h.Signature(), name, nprocs, w.a, w.disp)
			if w.disp != disp {
				disp = "mixed"
			}
		}
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), body.Bytes()) {
			t.Fatalf("%s: status %d, body\n%s\nwant\n%s", what, rec.Code, rec.Body, body.Bytes())
		}
		sig := ""
		if len(want) == 1 {
			sig = want[0].h.Signature().String()
		}
		hdr := rec.Header()
		if hdr.Get("Content-Type") != "application/json" || hdr.Get("X-Samr-Cache") != disp || hdr.Get("X-Samr-Signature") != sig {
			t.Errorf("%s: headers %v, want cache %q and signature %q", what, hdr, disp, sig)
		}
	}
	fresh := func(spec string, h *grid.Hierarchy, nprocs int) *partition.Assignment {
		t.Helper()
		p, err := ParsePartitioner(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, err := p.Partition(ctx, h, nprocs)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	partitionBody := func(nprocs int, hs ...*grid.Hierarchy) string {
		req := PartitionRequest{Partitioner: "nature+fable", NProcs: nprocs}
		for _, h := range hs {
			req.Hierarchies = append(req.Hierarchies, FromHierarchy(h))
		}
		return mustMarshal(t, req)
	}
	nf, err := ParsePartitioner("nature+fable")
	if err != nil {
		t.Fatal(err)
	}
	name := nf.Name()

	dir := t.TempDir()
	srv, err := New(Config{TierDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(Config{TierDir: dir}) // an empty result cache over srv's disk tier
	if err != nil {
		t.Fatal(err)
	}
	a0 := fresh("nature+fable", hs[0], 16)
	check("miss", wireAnswer(srv, "/v1/partition", partitionBody(16, hs[0])), name, 16, answer{hs[0], a0, CacheMiss})
	check("hit", wireAnswer(srv, "/v1/partition", partitionBody(16, hs[0])), name, 16, answer{hs[0], a0, CacheHit})
	check("tier", wireAnswer(twin, "/v1/partition", partitionBody(16, hs[0])), name, 16, answer{hs[0], a0, CacheTier})
	check("batch", wireAnswer(srv, "/v1/partition", partitionBody(16, hs[0], hs[1])), name, 16,
		answer{hs[0], a0, CacheHit}, answer{hs[1], fresh("nature+fable", hs[1], 16), CacheMiss})

	// Two concurrent posts of one key: the leader waits for the follower
	// to join its flight.
	joined := make(chan struct{})
	srv.Cache().SetOnFlight(func(_ CacheKey, leader bool) {
		if leader {
			<-joined
		} else {
			close(joined)
		}
	})
	recs := make([]*httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = wireAnswer(srv, "/v1/partition", partitionBody(16, hs[2]))
		}()
	}
	wg.Wait()
	srv.Cache().SetOnFlight(nil)
	if recs[0].Header().Get("X-Samr-Cache") == CacheShared {
		recs[0], recs[1] = recs[1], recs[0]
	}
	a2 := fresh("nature+fable", hs[2], 16)
	check("shared flight's leader", recs[0], name, 16, answer{hs[2], a2, CacheMiss})
	check("shared flight's follower", recs[1], name, 16, answer{hs[2], a2, CacheShared})

	// Sessions step through every hierarchy, each level replaced.
	for _, spec := range []string{"nature+fable", "postmap(domain-morton-u4)"} {
		p, err := ParsePartitioner(spec)
		if err != nil {
			t.Fatal(err)
		}
		wire := FromHierarchy(hs[0])
		create := wireAnswer(srv, "/v1/session", mustMarshal(t, SessionCreateRequest{Hierarchy: &wire, Partitioner: spec, NProcs: 24}))
		if create.Code != http.StatusOK {
			t.Fatalf("%s: create status %d", spec, create.Code)
		}
		stepPath := "/v1/session/" + create.Header().Get(SessionHeader) + "/step"
		var prevA *partition.Assignment
		for i, h := range hs[1:] {
			step := SessionStepRequest{Levels: make([]LevelOp, len(h.Levels))}
			for l, boxes := range FromHierarchy(h).Levels {
				step.Levels[l] = LevelOp{Op: LevelReplace, Boxes: boxes}
			}
			a, err := p.Partition(ctx, h, 24)
			if err != nil {
				t.Fatal(err)
			}
			if _, postmap := p.(*partition.PostMapped); postmap {
				// A postmap session relabels against its previous step.
				if a, err = partition.Remap(ctx, prevA, a); err != nil {
					t.Fatal(err)
				}
				prevA = a
			}
			check(fmt.Sprintf("%s step %d", spec, i+1), wireAnswer(srv, stepPath, mustMarshal(t, step)), p.Name(), 24, answer{h, a, CacheMiss})
		}
	}
}

func checkEncoding(t *testing.T, h *grid.Hierarchy, name string, nprocs int, outs []partitionOut) {
	t.Helper()
	want := oracleResponse(t, h, name, nprocs, outs)
	if got := appendPartitionResponse(nil, name, nprocs, outs); !bytes.Equal(got, want) {
		t.Fatalf("%s nprocs %d, %d results: codec\n%s\noracle\n%s", name, nprocs, len(outs), got, want)
	}
}

// TestFloatsMatchJSON holds appendFloat to encoding/json on the values
// an imbalance can force it through — zero, the 'e' cutoffs and their
// neighbours, the rounding residue 1.42e-14 — and on random finite
// floats.
func TestFloatsMatchJSON(t *testing.T) {
	fs := []float64{0, 1e-7, 1.42e-14, 1e21, 1e-6, 1e20, 100, 33.33333333333333, 1.0000000000000002, 5e-324, math.MaxFloat64}
	for _, f := range fs[:len(fs):len(fs)] {
		fs = append(fs, math.Nextafter(f, 0), math.Nextafter(f, math.Inf(1)))
	}
	r := rand.New(rand.NewSource(61))
	for i := 0; i < 20000; i++ {
		fs = append(fs, math.Float64frombits(r.Uint64()), r.NormFloat64()*math.Pow(10, float64(r.Intn(60)-30)))
	}
	for _, f := range fs {
		for _, f := range []float64{f, -f} {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				continue
			}
			want, err := json.Marshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if got := appendFloat(nil, f); !bytes.Equal(got, want) {
				t.Fatalf("%v: codec %s, encoding/json %s", f, got, want)
			}
		}
	}
}

// TestIntsMatchStrconv holds appendInt's two-digit table to
// strconv.AppendInt around every width it writes and on the values it
// leaves to strconv: negatives and 10000 on.
func TestIntsMatchStrconv(t *testing.T) {
	for x := -1100; x <= 11000; x++ {
		for _, v := range []int64{int64(x), int64(x) * 1000003, math.MinInt64 + int64(x+1100), math.MaxInt64 - int64(x+1100)} {
			if got, want := appendInt([]byte("x"), v), strconv.AppendInt([]byte("x"), v, 10); !bytes.Equal(got, want) {
				t.Fatalf("%d: table %s, strconv %s", v, got, want)
			}
		}
		if got, want := appendInt(nil, x), strconv.AppendInt(nil, int64(x), 10); !bytes.Equal(got, want) {
			t.Fatalf("%d: table %s, strconv %s", x, got, want)
		}
	}
}

// canonicalSpecs spans the parser's grammar: every family and curve,
// units and group counts from 1 to MaxInt64, both blockings, and every
// one of them wrapped in postmap.
func canonicalSpecs() []string {
	specs := []string{"domain", "patch", "patch-lpt", "hybrid", "nature+fable", " Domain-Hilbert "}
	for _, curve := range []string{"morton", "hilbert", "rowmajor"} {
		specs = append(specs, "domain-"+curve, "nature+fable-"+curve)
		for _, n := range []string{"1", "2", "37", "2147483648", "9223372036854775807"} {
			specs = append(specs, "domain-"+curve+"-u"+n, "nature+fable-"+curve+"-u"+n,
				"nature+fable-"+curve+"-u"+n+"-q"+n+"-frac", "nature+fable-"+curve+"-q"+n+"-u"+n+"-whole")
		}
	}
	for _, s := range specs[:len(specs):len(specs)] {
		specs = append(specs, "postmap("+s+")")
	}
	return specs
}

// plainJSON reports whether encoding/json writes s as s between quotes,
// which is what the encoder appends for every string it writes.
func plainJSON(s string) bool {
	raw, err := json.Marshal(s)
	return err == nil && string(raw) == `"`+s+`"`
}

// TestWrittenStringsNeedNoEscaping holds the encoder's claim that it
// writes no string encoding/json would escape: every canonical name of
// the grammar's span (FuzzParsePartitioner holds the rest), every
// disposition, a signature.
func TestWrittenStringsNeedNoEscaping(t *testing.T) {
	for _, spec := range canonicalSpecs() {
		p, err := ParsePartitioner(spec)
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		if !plainJSON(p.Name()) {
			t.Errorf("%q: name %q needs escaping", spec, p.Name())
		}
	}
	for _, s := range append(dispositions, geom.Signature{0xab, 0xff}.String()) {
		if !plainJSON(s) {
			t.Errorf("%q needs escaping", s)
		}
	}
}

// offOriginGrid is the hierarchy of partition's TestHugeUnitsCoverOffOrigin:
// its base domain does not start at 0.
func offOriginGrid() *grid.Hierarchy {
	h := grid.NewHierarchy(geom.NewBox2(3, 5, 35, 37), 2)
	h.Levels = append(h.Levels, grid.Level{Boxes: geom.BoxList{geom.NewBox2(10, 14, 40, 44)}})
	return h
}

// FuzzParsePartitioner: a spec that parses names a partitioner whose
// canonical name parses back to itself, needs no JSON escaping, and
// answers a hierarchy off the origin with an exact cover.
func FuzzParsePartitioner(f *testing.F) {
	for _, spec := range canonicalSpecs() {
		f.Add(spec)
	}
	f.Add("nature+fable-hilbert-u9223372036854775807")
	h := offOriginGrid()
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePartitioner(spec)
		if err != nil {
			return
		}
		name := p.Name()
		if q, err := ParsePartitioner(name); err != nil || q.Name() != name {
			t.Fatalf("%q: name %q does not round-trip: %v", spec, name, err)
		}
		if !plainJSON(name) {
			t.Fatalf("%q: name %q needs escaping", spec, name)
		}
		a, err := p.Partition(context.Background(), h, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Validate(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	})
}

// mustMarshal is json.Marshal of a fixture.
func mustMarshal(tb testing.TB, v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return string(raw)
}

// wireBody is a request body and the route it is posted to.
type wireBody struct {
	name, path, body string
}

// wireBodies are canonical bodies — real requests, reordered, spaced,
// refused downstream — and bodies the recogniser must decline: keys
// case-shifted, unknown or repeated, escapes, null, an exponent, -0,
// leading zeros, dim 3, a three-element lo, trailing bytes, a BOM, and
// plain malformed JSON. stepPath is the step route of a session on
// testHierarchy(0).
func wireBodies(tb testing.TB, stepPath string) []wireBody {
	h := testHierarchy(1)
	plain := mustMarshal(tb, PartitionRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4})
	// No hierarchy twice: a batch computes concurrently, so a repeat
	// would be a hit or a shared flight by chance.
	batch := mustMarshal(tb, PartitionRequest{Hierarchy: &h, Hierarchies: []Hierarchy{testHierarchy(0), testHierarchy(3)}, Partitioner: "nature+fable", NProcs: 8})
	create := mustMarshal(tb, SessionCreateRequest{Hierarchy: &h, Partitioner: "patch-lpt", NProcs: 3})
	moved := testHierarchy(2).Levels[1]
	step := mustMarshal(tb, SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelReplace, Boxes: moved}}})
	bad := testHierarchy(0)
	bad.Levels[1][0].Hi = []int{1000, 1000}
	indented, err := json.MarshalIndent(PartitionRequest{Hierarchy: &h, Partitioner: "patch", NProcs: 5}, " ", "\t")
	if err != nil {
		tb.Fatal(err)
	}
	r := strings.NewReplacer
	return []wireBody{
		{"plain", "/v1/partition", plain},
		{"batch", "/v1/partition", batch},
		{"indented", "/v1/partition", "\r\n" + string(indented) + "\n "},
		{"reordered", "/v1/partition", `{"nprocs":4,"partitioner":"domain","hierarchy":{"levels":[[{"hi":[32,32],"lo":[0,0],"dim":2}],[{"lo":[2,8],"dim":2,"hi":[18,32]}]],"ref_ratio":2,"domain":{"hi":[32,32],"dim":2,"lo":[0,0]}}}`},
		{"empty batch", "/v1/partition", `{"hierarchies":[],"partitioner":"domain","nprocs":4}`},
		{"invalid hierarchy", "/v1/partition", mustMarshal(tb, PartitionRequest{Hierarchy: &bad, Partitioner: "domain", NProcs: 4})},
		{"no levels", "/v1/partition", `{"hierarchy":{"domain":{"dim":2,"lo":[0,0],"hi":[32,32]},"ref_ratio":2,"levels":[]},"partitioner":"domain"}`},
		{"empty level", "/v1/partition", r(`"levels":[`, `"levels":[[],`).Replace(plain)},
		{"no ref_ratio", "/v1/partition", r(`"ref_ratio":2,`, ``).Replace(plain)},
		{"unknown partitioner", "/v1/partition", r(`"domain"`, `"quantum"`).Replace(plain)},
		{"bad nprocs", "/v1/partition", r(`"nprocs":4`, `"nprocs":-2`).Replace(plain)},
		{"no hierarchy", "/v1/partition", `{"partitioner":"domain","nprocs":4}`},
		{"empty object", "/v1/partition", ` { } `},
		{"negative zero", "/v1/partition", r(`"nprocs":4`, `"nprocs":-0`).Replace(plain)},
		{"case-shifted key", "/v1/partition", r(`"partitioner"`, `"Partitioner"`).Replace(plain)},
		{"unknown key", "/v1/partition", r(`{"hierarchy"`, `{"trace":"x","hierarchy"`).Replace(plain)},
		{"duplicate key", "/v1/partition", r(`"nprocs":4`, `"nprocs":4,"nprocs":6`).Replace(plain)},
		// encoding/json decodes the second hierarchy into the first: its
		// levels survive.
		{"duplicate hierarchy", "/v1/partition", r(`"partitioner"`, `"hierarchy":{"domain":{"dim":2,"lo":[0,0],"hi":[32,32]},"ref_ratio":2},"partitioner"`).Replace(plain)},
		{"escape", "/v1/partition", r(`"domain"`, `"dom`+`\`+`u0061in"`).Replace(plain)},
		{"non-ASCII", "/v1/partition", r(`"domain"`, "\"domain\xc3\xa9\"").Replace(plain)},
		{"control byte", "/v1/partition", r(`"domain"`, "\"dom\tain\"").Replace(plain)},
		{"null hierarchy", "/v1/partition", `{"hierarchy":null,"partitioner":"domain","nprocs":4}`},
		{"null nprocs", "/v1/partition", r(`"nprocs":4`, `"nprocs":null`).Replace(plain)},
		{"exponent", "/v1/partition", r(`"nprocs":4`, `"nprocs":1e2`).Replace(plain)},
		{"fraction", "/v1/partition", r(`"ref_ratio":2`, `"ref_ratio":2.0`).Replace(plain)},
		{"leading zero", "/v1/partition", r(`"nprocs":4`, `"nprocs":04`).Replace(plain)},
		{"19 digits", "/v1/partition", r(`"nprocs":4`, `"nprocs":1234567890123456789`).Replace(plain)},
		{"20 digits", "/v1/partition", r(`"nprocs":4`, `"nprocs":12345678901234567890`).Replace(plain)},
		{"dim 3", "/v1/partition", r(`"dim":2,"lo":[2,8],"hi":[18,32]`, `"dim":3,"lo":[2,8,0],"hi":[18,32,1]`).Replace(plain)},
		{"three-element lo", "/v1/partition", r(`"lo":[2,8]`, `"lo":[2,8,0]`).Replace(plain)},
		// A box that leaves json.Marshal's spelling late: the literal
		// matcher gives it to the key-by-key reader, which reads it, or
		// refuses it as the matcher did.
		{"box spaced inside", "/v1/partition", r(`"hi":[18,32]}`, `"hi":[18,32] }`).Replace(plain)},
		{"corner with a leading zero", "/v1/partition", r(`"hi":[18,32]}`, `"hi":[18,032]}`).Replace(plain)},
		{"negative corners", "/v1/partition", r(`"lo":[2,8],"hi":[18,32]`, `"lo":[-2,-8],"hi":[-1,-3]`).Replace(plain)},
		{"one-element hi", "/v1/partition", r(`"hi":[18,32]`, `"hi":[18]`).Replace(plain)},
		{"box without dim", "/v1/partition", r(`"dim":2,"lo":[2,8]`, `"lo":[2,8]`).Replace(plain)},
		{"trailing bytes", "/v1/partition", plain + ` {"nprocs":5}`},
		{"trailing garbage", "/v1/partition", plain + "\x00"},
		{"BOM", "/v1/partition", "\xef\xbb\xbf" + plain},
		{"truncated", "/v1/partition", plain[:len(plain)-1]},
		{"malformed", "/v1/partition", "{nope"},
		{"empty body", "/v1/partition", ""},
		{"array", "/v1/partition", "[" + plain + "]"},
		{"create", "/v1/session", create},
		{"create with hierarchies", "/v1/session", r(`{"hierarchy"`, `{"hierarchies":[],"hierarchy"`).Replace(create)},
		{"create without hierarchy", "/v1/session", `{"partitioner":"patch-lpt","nprocs":3}`},
		{"create dim 3", "/v1/session", r(`"dim":2,"lo":[0,0],"hi":[32,32]}]`, `"dim":3,"lo":[0,0,0],"hi":[32,32,1]}]`).Replace(create)},
		{"step", stepPath, step},
		{"keep step", stepPath, `{"levels":[{"op":"keep"},{"boxes":[],"op":"keep"}]}`},
		{"pinned step", stepPath, r(`{"levels"`, `{"base":"abc","levels"`).Replace(step)},
		{"keep with boxes", stepPath, r(`{"op":"keep"}`, `{"op":"keep","boxes":[{"dim":2,"lo":[0,0],"hi":[1,1]}]}`).Replace(step)},
		{"unknown op", stepPath, r(`"keep"`, `"merge"`).Replace(step)},
		{"case-shifted op", stepPath, r(`"keep"`, `"Keep"`).Replace(step)},
		{"op null", stepPath, r(`"keep"`, `null`).Replace(step)},
		{"replace without boxes", stepPath, `{"levels":[{"op":"keep"},{"op":"replace"}]}`},
		{"replace dim 3", stepPath, r(`"dim":2`, `"dim":3`).Replace(step)},
		{"empty step", stepPath, `{}`},
		{"levels null", stepPath, `{"levels":null}`},
		{"step trailing bytes", stepPath, step + "}"},
	}
}

// requestFor returns a fresh request value of the type path decodes.
func requestFor(path string) any {
	switch {
	case path == "/v1/partition":
		return new(PartitionRequest)
	case path == "/v1/session":
		return new(SessionCreateRequest)
	}
	return new(SessionStepRequest)
}

// wireAnswer serves one POST in process.
func wireAnswer(srv *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// TestWireAnswersMatchDecode holds the codec to the decode path on every
// wireBody and on bodies at and over the body limit: status, headers and
// body. Where decode refuses a body, its own answer is the reference;
// where it accepts one, the reference is a twin server's answer to the
// same body with a byte appended — encoding/json's Decoder stops at the
// end of the first value, so that byte changes nothing for it, while the
// recogniser, which wants the body to end there, declines.
func TestWireAnswersMatchDecode(t *testing.T) {
	const limit = 4 << 10
	fast, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	twin, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	fast.maxBody, twin.maxBody = limit, limit
	// One session each, on the same state, stepped in lockstep.
	h := testHierarchy(0)
	createBody := mustMarshal(t, SessionCreateRequest{Hierarchy: &h, Partitioner: "domain", NProcs: 4})
	tokens := [2]string{}
	for i, srv := range []*Server{fast, twin} {
		rec := wireAnswer(srv, "/v1/session", createBody)
		if tokens[i] = rec.Header().Get(SessionHeader); rec.Code != http.StatusOK || tokens[i] == "" {
			t.Fatalf("session create: %d %s", rec.Code, rec.Body)
		}
	}
	const stepPath = "/v1/session/TOKEN/step"

	bodies := wireBodies(t, stepPath)
	plain := bodies[0].body
	pad := func(n int) string { return strings.Repeat(" ", n-len(plain)) + plain }
	bodies = append(bodies,
		wireBody{"exactly the limit", "/v1/partition", pad(limit)},
		wireBody{"over the limit", "/v1/partition", pad(limit + 1)},
		wireBody{"over the limit, ends early", "/v1/partition", plain + strings.Repeat(" ", limit)},
	)
	// answer is a reply with the session token it names (a step's, or a
	// created session's) blanked.
	type answer struct {
		code int
		hdr  http.Header
		body string
	}
	normalized := func(rec *httptest.ResponseRecorder) answer {
		a := answer{rec.Code, rec.Header().Clone(), rec.Body.String()}
		if id := a.hdr.Get(SessionHeader); id != "" {
			a.body = strings.ReplaceAll(a.body, id, "TOKEN")
			a.hdr.Del(SessionHeader)
		}
		return a
	}
	fastOnes := 0
	for _, c := range bodies {
		got := normalized(wireAnswer(fast, strings.Replace(c.path, "TOKEN", tokens[0], 1), c.body))
		rec := httptest.NewRecorder()
		var want answer
		if decode(rec, http.MaxBytesReader(rec, io.NopCloser(strings.NewReader(c.body)), limit), requestFor(c.path)) {
			want = normalized(wireAnswer(twin, strings.Replace(c.path, "TOKEN", tokens[1], 1), c.body+"#"))
		} else {
			want = normalized(rec)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\ncodec       %+v\ndecode path %+v", c.name, got, want)
		}
		if len(c.body) < limit && recognise([]byte(c.body), requestFor(c.path), new(corners)) {
			fastOnes++
		}
	}
	if fastOnes < 15 {
		t.Fatalf("only %d bodies took the codec's path", fastOnes)
	}
}

// TestRealRequestsAreRecognised: json.Marshal of every request shape the
// clients send is in the canonical subset, so the codec's path is the
// one they take.
func TestRealRequestsAreRecognised(t *testing.T) {
	wide, base := wideHierarchy(8), testHierarchy(2)
	for _, c := range []struct {
		v   any
		out any
	}{
		{PartitionRequest{Hierarchy: &wide, Partitioner: "domain", NProcs: 8}, new(PartitionRequest)},
		{PartitionRequest{Hierarchies: []Hierarchy{wide, base}, Partitioner: "patch-lpt"}, new(PartitionRequest)},
		{SessionCreateRequest{Hierarchy: &base, Partitioner: "postmap(domain)", NProcs: 4}, new(SessionCreateRequest)},
		{finestStep(8), new(SessionStepRequest)},
		{SessionStepRequest{Levels: []LevelOp{{Op: LevelKeep}, {Op: LevelReplace}}, Base: strings.Repeat("0f", 32)}, new(SessionStepRequest)},
	} {
		raw := []byte(mustMarshal(t, c.v))
		if !recognise(raw, c.out, new(corners)) {
			t.Errorf("not recognised: %s", raw)
		}
		checkRecogniser(t, raw)
	}
}

// sameGeometry fails unless the recogniser's hierarchy got and the
// decoded want are both absent, or convert to deeply equal grid
// hierarchies, nil and empty slices included, every list exact-size.
// A hierarchy read into the corner list must also sign, from the
// corners, as Signature signs the decoded one.
func sameGeometry(t *testing.T, got, want *Hierarchy) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("hierarchy present: recognised %v, decoded %v", got != nil, want != nil)
	}
	if got == nil {
		return
	}
	g, err := got.geometry()
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.geometry()
	if err != nil {
		t.Fatalf("recognised a hierarchy the conversion refuses: %v", err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("recognised %+v\ndecoded %+v", g, w)
	}
	if len(g.Levels) != cap(g.Levels) {
		t.Fatalf("recognised %d levels with capacity %d", len(g.Levels), cap(g.Levels))
	}
	for l, lev := range g.Levels {
		if len(lev.Boxes) != cap(lev.Boxes) {
			t.Fatalf("recognised level %d: %d boxes with capacity %d", l, len(lev.Boxes), cap(lev.Boxes))
		}
	}
	if got.pre.cs == nil {
		t.Fatal("recognised a hierarchy outside the corner list")
	}
	var o partitionOut
	if h, err := got.sign(&o); h != nil || err != nil {
		t.Fatalf("signing a recognised hierarchy built %v (%v)", h, err)
	}
	if want := w.Signature(); o.sig != want || o.ratio != w.RefRatio {
		t.Fatalf("signed from the corners %s, ratio %d; decoded %s, ratio %d", o.sig, o.ratio, want, w.RefRatio)
	}
}

// mustDecode is decode's encoding/json call, which must succeed.
func mustDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		t.Fatalf("recognised a body encoding/json refuses: %v", err)
	}
}

// checkRecogniser holds the recogniser to encoding/json on data, as
// each of the three request types: it declines, or it yields what
// decoding plus the conversions yield.
func checkRecogniser(t *testing.T, data []byte) {
	t.Helper()
	var p, pj PartitionRequest
	if recognise(data, &p, new(corners)) {
		mustDecode(t, data, &pj)
		if p.Partitioner != pj.Partitioner || p.NProcs != pj.NProcs {
			t.Fatalf("recognised %q/%d, decoded %q/%d", p.Partitioner, p.NProcs, pj.Partitioner, pj.NProcs)
		}
		sameGeometry(t, p.Hierarchy, pj.Hierarchy)
		if (p.Hierarchies == nil) != (pj.Hierarchies == nil) || len(p.Hierarchies) != len(pj.Hierarchies) {
			t.Fatalf("batch: recognised %d (nil %v), decoded %d (nil %v)", len(p.Hierarchies), p.Hierarchies == nil, len(pj.Hierarchies), pj.Hierarchies == nil)
		}
		for i := range p.Hierarchies {
			sameGeometry(t, &p.Hierarchies[i], &pj.Hierarchies[i])
		}
	}
	var c, cj SessionCreateRequest
	if recognise(data, &c, new(corners)) {
		mustDecode(t, data, &cj)
		if c.Partitioner != cj.Partitioner || c.NProcs != cj.NProcs {
			t.Fatalf("recognised %q/%d, decoded %q/%d", c.Partitioner, c.NProcs, cj.Partitioner, cj.NProcs)
		}
		sameGeometry(t, c.Hierarchy, cj.Hierarchy)
	}
	var s, sj SessionStepRequest
	cs := new(corners)
	if recognise(data, &s, cs) {
		mustDecode(t, data, &sj)
		if s.Base != sj.Base {
			t.Fatalf("base: recognised %q, decoded %q", s.Base, sj.Base)
		}
		got, err := s.deltas()
		if err != nil {
			t.Fatal(err)
		}
		want, err := sj.deltas()
		if err != nil {
			t.Fatalf("recognised a step the conversion refuses: %v", err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("recognised %+v\ndecoded %+v", got, want)
		}
		for l, d := range got {
			if len(d.Boxes) != cap(d.Boxes) {
				t.Fatalf("recognised level %d: %d boxes with capacity %d", l, len(d.Boxes), cap(d.Boxes))
			}
		}
		if len(cs.v) != 0 {
			t.Fatalf("a step left %d corners behind", len(cs.v))
		}
	}
}

// FuzzPartitionWire: on any body, for each partition-shaped request
// type, the recogniser either declines or yields exactly what
// encoding/json plus the wire conversions yield.
func FuzzPartitionWire(f *testing.F) {
	for _, b := range wireBodies(f, "") {
		f.Add([]byte(b.body))
	}
	f.Fuzz(checkRecogniser)
}

// BenchmarkPartitionWire times both halves of the partition wire,
// encoding/json (the oracle) against the codec, on the largest RM2D
// snapshot of the quick trace and of the paper configuration's first 16
// steps (the bench module's scale; generated first, a few seconds).
// decode is the body to the hierarchy's signature, as a cache hit needs
// it: encoding/json decodes, converts and signs the grid form, the
// codec signs from its corner list. encode is a hit's answer to bytes.
func BenchmarkPartitionWire(b *testing.B) {
	ctx := context.Background()
	for _, scale := range []struct {
		name  string
		trace func() (*trace.Trace, error)
	}{
		{"quick", func() (*trace.Trace, error) { return apps.QuickTrace(ctx, "RM2D") }},
		{"paper-16-steps", func() (*trace.Trace, error) { return apps.Generate(ctx, "RM2D", apps.PaperConfig(), 16) }},
	} {
		b.Run(scale.name, func(b *testing.B) {
			tr, err := scale.trace()
			if err != nil {
				b.Fatal(err)
			}
			benchmarkPartitionWire(b, largestSnapshot(tr))
		})
	}
}

// largestSnapshot is tr's snapshot of the most boxes (the longest
// body), the first of them.
func largestSnapshot(tr *trace.Trace) *grid.Hierarchy {
	h := tr.Snapshots[0].H
	for _, snap := range tr.Snapshots {
		if numBoxes(snap.H) > numBoxes(h) {
			h = snap.H
		}
	}
	return h
}

// numBoxes is the number of boxes on h's levels.
func numBoxes(h *grid.Hierarchy) int {
	n := 0
	for _, lev := range h.Levels {
		n += len(lev.Boxes)
	}
	return n
}

func benchmarkPartitionWire(b *testing.B, h *grid.Hierarchy) {
	ctx := context.Background()
	wire := FromHierarchy(h)
	body := []byte(mustMarshal(b, PartitionRequest{Hierarchy: &wire, Partitioner: "nature+fable", NProcs: 16}))
	p, err := ParsePartitioner("nature+fable")
	if err != nil {
		b.Fatal(err)
	}
	a, err := packed(p.Partition(ctx, h, 16))
	if err != nil {
		b.Fatal(err)
	}
	outs := []partitionOut{{ratio: h.RefRatio, sig: h.Signature(), a: a, disp: CacheHit}}
	answer := oracleResponse(b, h, p.Name(), 16, outs)

	decodeWith := func(decode func(*PartitionRequest) bool) func(*testing.B) {
		return func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				var req PartitionRequest
				if !decode(&req) {
					b.Fatal("not decoded")
				}
				var o partitionOut
				if _, err := req.Hierarchy.sign(&o); err != nil || o.sig != outs[0].sig {
					b.Fatalf("signed %s (%v)", o.sig, err)
				}
			}
		}
	}
	b.Run("decode/json", decodeWith(func(req *PartitionRequest) bool {
		return json.NewDecoder(bytes.NewReader(body)).Decode(req) == nil
	}))
	cs := getCorners()
	defer putCorners(cs)
	b.Run("decode/codec", decodeWith(func(req *PartitionRequest) bool {
		cs.v = cs.v[:0]
		return recognise(body, req, cs)
	}))
	b.Run("encode/json", func(b *testing.B) {
		b.SetBytes(int64(len(answer)))
		b.ReportAllocs()
		for b.Loop() {
			oracleResponse(b, h, p.Name(), 16, outs)
		}
	})
	b.Run("encode/codec", func(b *testing.B) {
		b.SetBytes(int64(len(answer)))
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			buf = appendPartitionResponse(buf[:0], p.Name(), 16, outs)
		}
	})
}

// TestWireHitAllocations: a /v1/partition hit through ServeHTTP makes
// the same few allocations on the smallest quick RM2D snapshot as on
// the largest paper-16-steps one (the bench module's scale, generated
// first, a few seconds): nothing it allocates grows with the boxes. The
// recogniser reads them into the pooled corner list and signs from it,
// and a resident key builds no hierarchy. sync.Pool drops items under
// the race detector, so the test is skipped there.
func TestWireHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	ctx := context.Background()
	quick, err := apps.QuickTrace(ctx, "RM2D")
	if err != nil {
		t.Fatal(err)
	}
	smallest := quick.Snapshots[0].H
	for _, snap := range quick.Snapshots {
		if numBoxes(snap.H) < numBoxes(smallest) {
			smallest = snap.H
		}
	}
	paper, err := apps.Generate(ctx, "RM2D", apps.PaperConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	// The bound is what a hit allocates today with a few to spare: the
	// request, its headers and the response's, the per-request slices
	// of a one-hierarchy post, and the loads.
	const bound = 45
	for _, c := range []struct {
		name string
		h    *grid.Hierarchy
	}{{"quick smallest", smallest}, {"paper-16-steps largest", largestSnapshot(paper)}} {
		srv, err := New(Config{})
		if err != nil {
			t.Fatal(err)
		}
		wire := FromHierarchy(c.h)
		body := []byte(mustMarshal(t, PartitionRequest{Hierarchy: &wire, Partitioner: "nature+fable", NProcs: 16}))
		post := func() *discardWriter {
			w := &discardWriter{header: http.Header{}}
			srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)))
			return w
		}
		if w := post(); w.code != http.StatusOK {
			t.Fatalf("%s: miss answered %d", c.name, w.code)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if w := post(); w.code != http.StatusOK || w.header.Get("X-Samr-Cache") != CacheHit {
				t.Fatalf("%s: answered %d, cache %q", c.name, w.code, w.header.Get("X-Samr-Cache"))
			}
		})
		t.Logf("%s (%d boxes, %d B body): %.0f allocations a hit", c.name, numBoxes(c.h), len(body), allocs)
		if allocs > bound {
			t.Errorf("%s: a hit allocates %.0f times, more than %d", c.name, allocs, bound)
		}
	}
}

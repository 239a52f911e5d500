package samr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedAllowed lists the exported functions and methods that no
// non-test file references by name and that stay anyway, each with the
// reason: methods the standard library calls through an interface, and
// production-side accessors and reference implementations a named test
// holds a production path against.
var unreachedAllowed = map[string]string{
	"backoff.Hint.Unwrap": "called by errors.Is/As, which Retry and the peer client's callers go through",
	"samr.GenerateTrace":  "facade entry point of the package comment's Typical use; TestFacadeEndToEnd drives the pipeline from it",

	"core.NewOctantClassifier":   "the paper's section 3 octant baseline; TestOctantDiscretenessVsContinuous holds the continuous space against it",
	"sfc.Index3":                 "3-D Morton index, what ROADMAP 5(c) would build on; TestMorton3* and TestIndex3LayeredFallback pin it",
	"sfc.HilbertPoint":           "inverse of the Hilbert index; TestHilbertBijectiveOnGrid and TestHilbertAdjacency walk the curve with it",
	"geom.NewBox3":               "the volumetric boxes the wire, BoxIndex and patch-lpt accept; geom's 3-D suites and partition TestVolumetricHierarchy build them with it",
	"geom.Box.Cells":             "cell-by-cell iteration; the field, solver, cluster and amr suites fill and read fixtures with it and partition's TestDomainSFCKeepsColumnsTogether maps owners per cell",
	"geom.BoxIndex.Query":        "allocating form of AppendQuery; the boxindex suites compare it with the all-pairs scan",
	"geom.BoxList.ContainsPoint": "point-in-region oracle; cluster's coverAll (every tag is covered) and amr's invariants read coverage through it",
	"cluster.NewTagField":        "dense tag container Cluster takes; cluster_test.go builds every Berger-Rigoutsos fixture with it",
	"field.ExchangeGhosts":       "sequential reference of the driver's per-patch ExchangeGhostsWith fan-out; TestExchangeGhosts",
	"field.Patch.At":             "single-cell read; the field, solver and amr suites assert kernel and transfer results through it",
	"field.Patch.Fill":           "constant fill; fixtures of the field, solver and amr suites",
	"field.Patch.MaxAbs":         "interior sup norm; the solver stability tests and TestMaxAbs bound kernels with it",
	"field.Patch.SumInterior":    "interior sum; TestRestrictConservation checks conservation with it",
	"grid.Hierarchy.ApplyDelta":  "in-place form of WithDelta that the PR 8 session contract names; TestApplyDeltaInPlace, TestApplyDeltaSignatureMatchesColdRehash",
	"grid.Hierarchy.Tracked":     "whether a signature cache is attached; TestCloneDropsTracking and the delta suite assert the contract's tracked/untracked transitions on it",
	"admit.Stats.ShedTotal":      "sum over the shed reasons; the admit suite and the server's saturation ramp assert on it",
}

// declared is one exported function or method of the census.
type declared struct {
	name string // bare identifier
	pos  token.Position
}

// TestExportedFunctionsAreReached is the executable form of "every
// exported name has a caller": an exported function or method declared
// in a non-test file under internal/ or in samr.go must be referenced
// by some non-test file of the repository (bench/, cmd/ and examples/
// included) or carry a reason in unreachedAllowed. Matching is by bare
// identifier with no type checking, which errs on the side of
// "reached".
func TestExportedFunctionsAreReached(t *testing.T) {
	fset := token.NewFileSet()
	decls := map[string]declared{}
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		census := path == "samr.go" || strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declares := map[*ast.Ident]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				declares[n.Name] = true
				if census && n.Name.IsExported() {
					key := f.Name.Name + "." + recvName(n) + n.Name.Name
					decls[key] = declared{n.Name.Name, fset.Position(n.Pos())}
				}
			case *ast.TypeSpec:
				declares[n.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					declares[id] = true
				}
			case *ast.StructType:
				for _, fld := range n.Fields.List {
					for _, id := range fld.Names {
						declares[id] = true
					}
				}
			case *ast.Ident:
				if !declares[n] {
					used[n.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) < 100 {
		t.Fatalf("census found only %d exported functions: run from the repository root", len(decls))
	}

	var unreached []string
	for key, d := range decls {
		if !used[d.name] && unreachedAllowed[key] == "" {
			unreached = append(unreached, d.pos.String()+": "+key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is referenced by no non-test file: delete it, or give it a reason in unreachedAllowed", u)
	}
	for key := range unreachedAllowed {
		if d, ok := decls[key]; !ok || used[d.name] {
			t.Errorf("unreachedAllowed[%q] is stale: the name is gone or is reached now", key)
		}
	}
	if len(unreachedAllowed) > 20 {
		t.Errorf("unreachedAllowed has %d entries; the census allows 20", len(unreachedAllowed))
	}
}

// recvName is "T." for a method on T or *T and "" for a function.
func recvName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if idx, ok := typ.(*ast.IndexListExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "."
	}
	return ""
}

package samr

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// unreachedAllowed lists the exported names that no non-test file
// reaches and that stay anyway, each with the reason: methods the
// standard library calls through an interface it declares inside a
// function body, and reference implementations and read-only accessors
// that a named test holds a production path against.
var unreachedAllowed = map[string]string{
	"core.NewOctantClassifier":       "the paper's section 3 octant baseline; TestOctantDiscretenessVsContinuous holds the continuous space against it",
	"core.OctantClassifier.Classify": "the octant baseline itself; the TestOctantClassifier* suite and TestOctantDiscretenessVsContinuous",
	"sfc.HilbertPoint":               "inverse of the Hilbert index; TestHilbertBijectiveOnGrid and TestHilbertAdjacency walk the curve with it",
	"geom.Box.Cells":                 "cell-by-cell iteration; the field, solver, cluster and amr suites fill and read fixtures with it and partition's TestDomainSFCKeepsColumnsTogether maps owners per cell",
	"geom.BoxIndex.Query":            "allocating form of AppendQuery; the boxindex suites compare it with the all-pairs scan",
	"geom.BoxList.ContainsPoint":     "point-in-region oracle; cluster's coverAll (every tag is covered) and amr's invariants read coverage through it",
	"geom.OverlapVolumeNaive":        "pairwise overlap oracle; geom's volume tests hold OverlapScan and BoxIndex.QueryVolume to it, grid's TotalOverlap test and the migration and benefit reference bodies of sim and partition are built on it",
	"field.ExchangeGhosts":           "sequential reference of the driver's exchange plan; TestExchangeGhosts and amr's TestExchangePlanMatchesExchangeGhosts",
	"field.Patch.At":                 "single-cell read; the field, solver and amr suites assert kernel and transfer results through it",
	"field.Patch.Fill":               "constant fill; fixtures of the field, solver and amr suites",
	"field.Patch.MaxAbs":             "interior sup norm; the solver stability tests and TestMaxAbs bound kernels with it",
	"field.Patch.SumInterior":        "interior sum; TestRestrictConservation checks conservation with it",
	"admit.Stats.ShedTotal":          "sum over the shed reasons; the admit suite and the server's saturation ramp assert on it",
	"memo.Cache.SetOnFlight":         "flight-start hook; the singleflight and cancelled-leader suites of memo and server's cancel, admit, session and saturation tests hold a compute open with it to make their interleavings deterministic",
}

// unsetAllowed lists the settings (fields of an exported struct type
// under internal/ named Config or ending in Config or Policy) that no
// non-test file outside the declaring package sets, each with the
// reason it stays a field rather than a constant.
var unsetAllowed = map[string]string{
	"amr.Config.CFL":       "the paper's time-step safety factor, spelled once in DefaultConfig beside the setup it belongs to",
	"amr.Config.TagBuffer": "the paper's tag buffer, spelled once in DefaultConfig beside the setup it belongs to",
	"amr.Config.Workers":   "per-patch fan-out width; amr's golden-equivalence suite sets it to prove results identical at every worker count",
}

// rootCensus is the census of the repository, shared by the tests that
// read it.
var rootCensus = sync.OnceValues(func() (*censusResult, error) { return census(".", "samr") })

// TestSettingsAreSet is the executable form of "a setting that nothing
// sets is a constant": every field of an exported Config, …Config or
// …Policy struct under internal/ is set, as a composite-literal key or
// by assignment, by a non-test file outside its own package (cmd/,
// examples/ and bench/ included), or carries a reason in unsetAllowed.
func TestSettingsAreSet(t *testing.T) {
	c, err := rootCensus()
	if err != nil {
		t.Fatal(err)
	}
	var unset []string
	for key, pos := range c.settings {
		if !c.set[key] && unsetAllowed[key] == "" {
			unset = append(unset, pos.String()+": "+key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("%s is set by no non-test file outside its package: make it a constant, or give it a reason in unsetAllowed", u)
	}
	for key := range unsetAllowed {
		if _, ok := c.settings[key]; !ok || c.set[key] {
			t.Errorf("unsetAllowed[%q] is stale: the setting is gone or is set now", key)
		}
	}
	t.Logf("%d settings, %d unset and allow-listed", len(c.settings), len(unsetAllowed))
}

// TestExportedFunctionsAreReached is the executable form of "nothing
// stays because only a test calls it": every exported function, method,
// type, package-level variable or constant, and field of a struct
// without json tags that a non-test file under internal/ or samr.go
// declares must be reached from some non-test file of the repository
// (cmd/, examples/ and bench/ included) or carry a reason in
// unreachedAllowed.
func TestExportedFunctionsAreReached(t *testing.T) {
	c, err := rootCensus()
	if err != nil {
		t.Fatal(err)
	}
	decls, reached := c.decls, c.reached
	if len(decls) < 500 {
		t.Fatalf("census found only %d exported names: run from the repository root", len(decls))
	}
	var unreached []string
	for key, pos := range decls {
		if !reached[key] && unreachedAllowed[key] == "" {
			unreached = append(unreached, pos.String()+": "+key)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is reached by no non-test file: delete it, or give it a reason in unreachedAllowed", u)
	}
	for key := range unreachedAllowed {
		if _, ok := decls[key]; !ok || reached[key] {
			t.Errorf("unreachedAllowed[%q] is stale: the name is gone or is reached now", key)
		}
	}
	if len(unreachedAllowed) > 20 {
		t.Errorf("unreachedAllowed has %d entries; the census allows 20", len(unreachedAllowed))
	}
	t.Logf("%d exported names, %d unreached and allow-listed", len(decls), len(unreachedAllowed))
}

// TestCensusOnPlantedModule runs the census over testdata/census, which
// plants what matching by bare identifier masked: a method sharing its
// name with a reached function, a method reached only through an
// interface, and a type only a test uses; and settings set from
// another package by key and by assignment, and one set only by its
// own package.
func TestCensusOnPlantedModule(t *testing.T) {
	c, err := census("testdata/census", "planted")
	if err != nil {
		t.Fatal(err)
	}
	decls, reached := c.decls, c.reached
	for key, want := range map[string]bool{
		"lib.Sub":         true,
		"lib.Vec.Sub":     false,
		"lib.Square.Area": true,
		"lib.Probe":       false,
	} {
		if _, ok := decls[key]; !ok {
			t.Errorf("the census does not list %s", key)
		} else if reached[key] != want {
			t.Errorf("%s: reached = %v, want %v", key, reached[key], want)
		}
	}
	for key, want := range map[string]bool{
		"lib.Config.Set":          true,
		"lib.Config.Unset":        false,
		"lib.RetryPolicy.Retries": true,
	} {
		if _, ok := c.settings[key]; !ok {
			t.Errorf("the census does not list the setting %s", key)
		} else if c.set[key] != want {
			t.Errorf("%s: set = %v, want %v", key, c.set[key], want)
		}
	}
	if _, ok := c.settings["lib.Vec.X"]; ok {
		t.Error("the census lists lib.Vec.X as a setting; Vec is not a Config or Policy")
	}
}

// censusResult is what census finds.
type censusResult struct {
	// decls are the exported names, reached the subset that is reached.
	decls   map[string]token.Position
	reached map[string]bool
	// settings are the fields of the exported struct types under
	// internal/ named Config or ending in Config or Policy, keyed
	// "pkg.Type.Field"; set is the subset that a non-test file outside
	// the declaring package sets.
	settings map[string]token.Position
	set      map[string]bool
}

// census type-checks every non-test package under root, whose go.mod
// names module (a nested go.mod such as bench/'s is read as the package
// module/<dir>), and returns the exported names the root package and
// the packages under internal/ declare, keyed "pkg.Name",
// "pkg.Type.Method" or "pkg.Type.Field", with the subset that is
// reached, and the settings under internal/ with the subset that is
// set. A setting is set when a non-test file of another package names
// it as a composite-literal key, lists it in an unkeyed literal, or
// assigns to it (as any selector of an assignment's left-hand side).
// A name is reached
// when a non-test file mentions it outside its own declaration (for a
// type, outside its methods too), or, for a method, when its receiver
// satisfies an interface declaring it: any interface type a non-test
// file writes down, named or anonymous, the exported interfaces of the
// standard-library packages the repository imports, and error. Reach is
// not transitive: a caller that is itself unreached still counts, and
// falls out on the next run once it is deleted. Build constraints are
// not evaluated; no non-test file of the repository carries one.
func census(root, module string) (*censusResult, error) {
	c := &checker{
		fset:   token.NewFileSet(),
		module: module,
		files:  map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		infos:  map[string]*types.Info{},
	}
	c.std = importer.ForCompiler(c.fset, "source", nil)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkgPath := module
		if rel != "." {
			pkgPath += "/" + filepath.ToSlash(rel)
		}
		c.files[pkgPath] = append(c.files[pkgPath], f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pkgPath := range c.files {
		if _, err := c.Import(pkgPath); err != nil {
			return nil, err
		}
	}

	// Every object a non-test file mentions, and every interface type
	// one writes down or could be handed by the standard library.
	used := map[types.Object]bool{}
	setOutside := map[types.Object]bool{} // fields another package sets
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for pkgPath, info := range c.infos {
		for _, f := range c.files[pkgPath] {
			for _, decl := range f.Decls {
				markUses(info, decl, used)
				markSets(info, decl, func(fld *types.Var) {
					if fld.Pkg().Path() != pkgPath {
						setOutside[fld] = true
					}
				})
			}
		}
		for _, tv := range info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range c.pkgs[pkgPath].Imports() {
			if c.infos[imp.Path()] != nil {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					addIface(tn.Type())
				}
			}
		}
	}

	r := &censusResult{
		decls:    map[string]token.Position{},
		reached:  map[string]bool{},
		settings: map[string]token.Position{},
		set:      map[string]bool{},
	}
	add := func(key string, obj types.Object, isReached bool) {
		r.decls[key] = c.fset.Position(obj.Pos())
		if isReached {
			r.reached[key] = true
		}
	}
	for pkgPath, pkg := range c.pkgs {
		if pkgPath != module && !strings.HasPrefix(pkgPath, module+"/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				add(pkg.Name()+"."+name, obj, used[obj])
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					add(pkg.Name()+"."+name+"."+m.Name(), m, used[m] || viaInterface(named, m, ifaces))
				}
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !obj.Exported() {
				continue
			}
			if pkgPath != module && isSettings(name) {
				for i := 0; i < st.NumFields(); i++ {
					fld := st.Field(i)
					key := pkg.Name() + "." + name + "." + fld.Name()
					r.settings[key] = c.fset.Position(fld.Pos())
					if setOutside[fld] {
						r.set[key] = true
					}
				}
			}
			if hasJSONTag(st) {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if fld := st.Field(i); fld.Exported() && !fld.Embedded() {
					add(pkg.Name()+"."+name+"."+fld.Name(), fld, used[fld])
				}
			}
		}
	}
	return r, nil
}

// isSettings reports whether a struct type of this name holds settings.
func isSettings(name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Policy")
}

// checker parses once and type-checks on demand: module packages from
// the parsed files, everything else from GOROOT source.
type checker struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	files  map[string][]*ast.File
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
}

func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := c.files[path]
	if !ok {
		if path == c.module || strings.HasPrefix(path, c.module+"/") {
			return nil, fmt.Errorf("census: no non-test files for package %s", path)
		}
		return c.std.Import(path)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.infos[path] = pkg, info
	return pkg, nil
}

// markUses records the objects decl mentions, leaving out what decl
// itself declares: a function's recursive call is not a caller, and a
// type's method receivers are not a use of the type. An unkeyed
// composite literal mentions every field of its struct.
func markUses(info *types.Info, decl ast.Decl, used map[types.Object]bool) {
	own := map[types.Object]bool{}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		own[info.Defs[d.Name]] = true
		if d.Recv != nil && len(d.Recv.List) == 1 {
			ast.Inspect(d.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if tn, ok := info.Uses[id].(*types.TypeName); ok {
						own[tn] = true
					}
				}
				return true
			})
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				own[info.Defs[s.Name]] = true
			case *ast.ValueSpec:
				for _, id := range s.Names {
					own[info.Defs[id]] = true
				}
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if obj := origin(info.Uses[n]); obj != nil && !own[obj] {
				used[obj] = true
			}
		case *ast.CompositeLit:
			if len(n.Elts) == 0 {
				break
			}
			if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
				break
			}
			if st, ok := info.Types[n].Type.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					used[origin(st.Field(i))] = true
				}
			}
		}
		return true
	})
}

// markSets calls set for every struct field decl sets: a key of a
// keyed composite literal, every field of an unkeyed one, and every
// field selected on the left-hand side of an assignment or an
// increment (in cfg.Cluster.MinBlock = 2, both Cluster and MinBlock).
func markSets(info *types.Info, decl ast.Decl, set func(*types.Var)) {
	field := func(id *ast.Ident) {
		if v, ok := origin(info.Uses[id]).(*types.Var); ok && v.IsField() {
			set(v)
		}
	}
	lhs := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.SelectorExpr:
				field(x.Sel)
				e = x.X
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			default:
				return
			}
		}
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						field(id)
					}
				} else if i < st.NumFields() {
					set(origin(st.Field(i)).(*types.Var))
				}
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				lhs(e)
			}
		case *ast.IncDecStmt:
			lhs(n.X)
		}
		return true
	})
}

// origin maps a method or field of an instantiated generic type back to
// the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// viaInterface reports whether some interface in ifaces declares a
// method of m's name and a pointer to named satisfies it.
func viaInterface(named *types.Named, m *types.Func, ifaces map[*types.Interface]bool) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			declares = declares || it.Method(i).Name() == m.Name()
		}
		if declares && types.Implements(ptr, it) {
			return true
		}
	}
	return false
}

func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
			return true
		}
	}
	return false
}

package msc_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the declarations under internal/ that no non-test
// file reaches but that stay on purpose, each with the reason it stays.
// Keys are the declaration's path below internal/, then its name, then
// the method name for a method: "pairs.MustNewSet", "dynamic.Problem.SetSink".
// A helper that only its own package's tests call belongs in a _test.go
// file instead.
var reachAllowlist = map[string]string{
	"bitset.FromIndices":                  "builds fixed coverage sets in maxcover's tests",
	"bitset.Set.AndNotCount":              "the unweighted marginal of the dense coverage oracles in maxcover's and core's reference tests",
	"dynamic.Problem.SetSink":             "the only way to attach the dynamic_step event sink; dropping it is a telemetry schema change",
	"montecarlo.Inject":                   "the independent σ⁻ check of DESIGN §11, called by bench/mscperf/trace_test.go",
	"obs.MetricNames":                     "cmd/ops_test.go compares scraped metric names with docs/metrics.golden",
	"pairs.MustNewSet":                    "builds fixed pair sets in the tests of core, graphio and viz",
	"pairs.SampleViolatingWithCommonNode": "samples MSC-CN instances for core's common-node tests",
	"shortestpath.BoundedTable.Stats":     "core's scale and differential tests assert the bounded table builds no dense row",
	"shortestpath.Landmarks.LowerBound":   "landmark leftover; goes with the landmark code once bench/ stops naming it (ROADMAP item 4)",
	"shortestpath.LazyTable.Stats":        "lazy-table leftover; goes with the lazy table once bench/ stops naming it (ROADMAP item 4)",
	"submodular.IsMonotone":               "core's tests check the paper's monotonicity claims for μ, ν and σ⁻ with it",
	"submodular.IsSubmodular":             "core's tests check the paper's submodularity claims for μ and ν with it",
	"submodular.LazyGreedy":               "the CELF reference of core/bounds_diff_test.go and maxcover's tests",
}

// TestInternalNamesReached fails when a package-level name or method
// declared under internal/, exported or not, is reached by no non-test Go
// file of the tree. The root facade, cmd/, examples/, bench/ and internal/
// all count as callers; bench/ does because deleting a name it spells
// breaks the benchmark build. The scan is parse only: a pkg.Name selector resolves through its file's imports, a plain
// identifier counts for its own package, and a method counts as reached
// when its name is selected anywhere or declared in an interface. A
// declaration's own body does not reach it, nor does a method's receiver
// reach its type. The test also fails on allowlist entries that are no
// longer declared or that are reached, so the list stays short.
func TestInternalNamesReached(t *testing.T) {
	sc, err := scanTree(".")
	if err != nil {
		t.Fatal(err)
	}
	unreached := sc.unreached()
	isUnreached := make(map[string]bool, len(unreached))
	var fail []string
	for _, name := range unreached {
		isUnreached[name] = true
		if _, ok := reachAllowlist[name]; !ok {
			fail = append(fail, name)
		}
	}
	if len(fail) > 0 {
		t.Errorf("%d names under internal/ are reached by no non-test file; delete them, "+
			"move test-only helpers into a _test.go file, or allowlist them with a reason:\n\t%s",
			len(fail), strings.Join(fail, "\n\t"))
	}
	var stale []string
	for name, reason := range reachAllowlist {
		switch {
		case strings.TrimSpace(reason) == "":
			stale = append(stale, name+": no reason given")
		case !sc.declared[name]:
			stale = append(stale, name+": not declared")
		case !isUnreached[name]:
			stale = append(stale, name+": reached by non-test code")
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Errorf("stale reachAllowlist entries:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// TestReachScanFlagsUnusedFunc checks the scan on a synthetic tree: a
// function nothing calls is flagged, exported or not, and the forms a
// caller can take (qualified call, aliased import, method value, interface
// method, array-index key, in-package identifier) each count as reached.
func TestReachScanFlagsUnusedFunc(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"internal/lib/lib.go": `package lib
type T struct{ Field int }
func (T) Used() {}
func (T) Unused() {}
func (T) Iface() {}
func (t T) Self() { t.Self() }
func Used() T { return T{Field: helper} }
func Unused() {}
func Recursive() { Recursive() }
func unusedHelper() {}
const helper = 1
const (
	KindA = iota
	KindB
)
var names = [...]string{KindA: "a"}
var _ = names
type Unreached struct{}
func (Unreached) M() {}
`,
		"internal/lib/lib_test.go": `package lib
func init() { Unused(); _ = KindB }
`,
		"cmd/tool/main.go": `package main
import alias "msc/internal/lib"
type I interface{ Iface() }
func main() { v := alias.Used(); v.Used(); f := alias.T.Used; _ = f }
`,
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sc, err := scanTree(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(sc.unreached(), " ")
	want := "lib.KindB lib.Recursive lib.T.Self lib.T.Unused lib.Unreached lib.Unreached.M lib.Unused lib.unusedHelper"
	if got != want {
		t.Errorf("unreached:\n got %s\nwant %s", got, want)
	}
}

// reachScan indexes the declarations under internal/ and every reference
// the non-test files of a tree make.
type reachScan struct {
	decls    []reachDecl
	declared map[string]bool
	// refs holds, per import path, the package-level names referenced
	// from outside their own declaration.
	refs map[string]map[string]bool
	// selected holds every name used as a selector's right-hand side
	// or declared as an interface method.
	selected map[string]bool
}

type reachDecl struct {
	key, path, name string
	method          bool
}

type reachFile struct {
	path string // import path of the file's package
	file *ast.File
}

const reachModule = "msc"

// stdMethods are method names the standard library calls through its own
// interfaces (sort, container/heap, errors, fmt, encoding/json, the
// math/rand sources), which no file of the tree declares or selects.
var stdMethods = []string{
	"Error", "Format", "GoString", "Int63", "Len", "Less", "MarshalJSON",
	"Pop", "Push", "Seed", "String", "Swap", "Uint64", "UnmarshalJSON",
	"Unwrap",
}

// scanTree parses every non-test .go file below root, skipping testdata
// and hidden directories. A file's import path is the module path plus
// its directory, which holds for the bench module too (msc/bench).
func scanTree(root string) (*reachScan, error) {
	fset := token.NewFileSet()
	var files []reachFile
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		path := reachModule
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		files = append(files, reachFile{path, f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sc := &reachScan{
		declared: map[string]bool{},
		refs:     map[string]map[string]bool{},
		selected: map[string]bool{},
	}
	for _, name := range stdMethods {
		sc.selected[name] = true
	}
	for _, rf := range files {
		sc.collectDecls(rf)
		sc.collectRefs(rf)
	}
	return sc, nil
}

func (sc *reachScan) collectDecls(rf reachFile) {
	const prefix = reachModule + "/internal/"
	if !strings.HasPrefix(rf.path, prefix) {
		return
	}
	short := strings.TrimPrefix(rf.path, prefix)
	add := func(id *ast.Ident, recv string) {
		if id.Name == "_" || (id.Name == "init" && recv == "") {
			return
		}
		d := reachDecl{key: short + "." + id.Name, path: rf.path, name: id.Name}
		if recv != "" {
			d.key = short + "." + recv + "." + id.Name
			d.method = true
		}
		sc.decls = append(sc.decls, d)
		sc.declared[d.key] = true
	}
	for _, decl := range rf.file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				add(decl.Name, "")
			} else if recv := recvTypeName(decl.Recv.List[0].Type); recv != "" {
				add(decl.Name, recv)
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					add(spec.Name, "")
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						add(id, "")
					}
				}
			}
		}
	}
}

// recvTypeName returns the base type name of a method receiver:
// T, *T, T[P] and *T[P] all give T.
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func (sc *reachScan) ref(path, name string) {
	m := sc.refs[path]
	if m == nil {
		m = map[string]bool{}
		sc.refs[path] = m
	}
	m[name] = true
}

// collectRefs records the references rf makes. An import is known by its
// explicit name or its path's last element, which is every in-tree
// package's name.
func (sc *reachScan) collectRefs(rf reachFile) {
	imports := map[string]string{} // local name → import path
	for _, is := range rf.file.Imports {
		path := strings.Trim(is.Path.Value, `"`)
		local := path[strings.LastIndex(path, "/")+1:]
		if is.Name != nil {
			local = is.Name.Name
		}
		imports[local] = path
	}
	// self is the name a declaration may use in its own body without
	// counting as reached: a function's own name, or a method's name
	// as a selector.
	var selfIdent, selfSel string
	var visit func(ast.Node) bool
	walk := func(n ast.Node) {
		if n != nil {
			ast.Inspect(n, visit)
		}
	}
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[x.Name]; ok {
					sc.ref(path, n.Sel.Name)
					return false
				}
			}
			if n.Sel.Name != selfSel {
				sc.selected[n.Sel.Name] = true
			}
			walk(n.X)
			return false
		case *ast.InterfaceType:
			for _, f := range n.Methods.List {
				for _, id := range f.Names {
					sc.selected[id.Name] = true
				}
			}
		case *ast.Field:
			// Field, parameter and interface-method names declare, not
			// reference.
			walk(n.Type)
			return false
		case *ast.CompositeLit:
			// An identifier key names a struct field unless the literal
			// is a map or an array, where it is an expression.
			walk(n.Type)
			_, isMap := n.Type.(*ast.MapType)
			_, isArray := n.Type.(*ast.ArrayType)
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok && !isMap && !isArray {
					if _, ok := kv.Key.(*ast.Ident); ok {
						walk(kv.Value)
						continue
					}
				}
				walk(e)
			}
			return false
		case *ast.Ident:
			if n.Name != selfIdent {
				sc.ref(rf.path, n.Name)
			}
		}
		return true
	}
	for _, decl := range rf.file.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			selfIdent, selfSel = "", ""
			if decl.Recv == nil {
				selfIdent = decl.Name.Name
			} else {
				selfSel = decl.Name.Name
			}
			// The receiver is skipped: a method does not reach its type.
			walk(decl.Type)
			if decl.Body != nil {
				walk(decl.Body)
			}
		case *ast.GenDecl:
			selfIdent, selfSel = "", ""
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.TypeParams != nil {
						walk(spec.TypeParams)
					}
					walk(spec.Type)
				case *ast.ValueSpec:
					walk(spec.Type)
					for _, v := range spec.Values {
						walk(v)
					}
				}
			}
		}
	}
}

// unreached returns the sorted keys of the declarations nothing reaches.
func (sc *reachScan) unreached() []string {
	var out []string
	for _, d := range sc.decls {
		var ok bool
		if d.method {
			ok = sc.selected[d.name]
		} else {
			ok = sc.refs[d.path][d.name]
		}
		if !ok {
			out = append(out, d.key)
		}
	}
	sort.Strings(out)
	return out
}

package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// Reachability guard (the NoCodeOnlyTestsReach row of TestSourceGuards):
// every function and method in a non-test file of the root module must be
// reachable from a binary. The roots are the main and init functions and
// the package-level initializers of the non-test files under cmd/,
// examples/ and bench/ (bench/ is its own module, but the benchmark
// binary runs what it calls), the init functions and initializers of
// every other package, which run whenever the package is linked in, and
// the allowlist below. Code that only tests reach belongs in a _test.go
// file: an oracle next to the test that compares against it, a test hook
// in the package's export_test.go.
//
// The walk uses go/ast alone, without type information:
//   - a package-level function is reached through its name in its own
//     package or through an import's selector (pkg.F);
//   - a method is reached when a reached declaration selects its name
//     (x.M), whatever the receiver, or names an interface type that lists
//     it. Colliding names (Get, Len, Set) keep each other live, so the
//     guard over-approximates: it never flags a method a binary calls.
var reachRoots = []string{"cmd", "examples", "bench"}

// reachAllowlist names the functions and methods (Type.Method) that no
// binary calls but that stay in production files, each with why.
var reachAllowlist = map[string]string{
	"internal/store.Store.CheckConsistency":  "the RC == live-walk invariant; tests of other packages call it",
	"internal/store.Store.RefCount":          "reference-count probe; tests of other packages assert on it",
	"internal/core.Machine.CheckConsistency": "the RC == live-walk invariant; tests of other packages call it",
	"internal/core.Machine.RefCount":         "reference-count probe; tests of other packages assert on it",
	"internal/hds.Map.BytesScan":             "the one whole-map walk; hds and kvstore tests check exact map contents with it",
	"internal/segment.GatherWords":           "bench/bench_test.go calls it; it goes when the benchmark moves to GatherWordsInto",
}

// implicitMethods are called by the standard library through an
// interface (fmt.Stringer, error), never by name in this tree.
var implicitMethods = []string{"String", "Error", "Unwrap"}

type reachFunc struct {
	dir, recv, name string // recv is "" for a plain function
	pos             string
	node            ast.Node          // the declaration the walk inspects
	imports         map[string]string // local import name -> directory; "" for the standard library
}

func (f *reachFunc) id() string {
	if f.recv == "" {
		return f.dir + "." + f.name
	}
	return f.dir + "." + f.recv + "." + f.name
}

// reachIface is a package-level interface type: naming it in reached code
// keeps every method of its method set live (satisfying it, even in a
// compile-time assertion, needs them).
type reachIface struct {
	dir     string
	typ     *ast.InterfaceType
	imports map[string]string
}

func checkReachability(t *testing.T) {
	unreached, declared := unreachableFuncs(t)
	for id := range reachAllowlist {
		if !declared[id] {
			t.Errorf("allowlist entry %s names no function in a non-test file; drop it", id)
		}
	}
	for _, f := range unreached {
		t.Errorf("%s: %s is reached by no binary under %v; delete it or move it into a _test.go file",
			f.pos, f.id(), reachRoots)
	}
}

func isRootDir(dir string) bool {
	return slices.ContainsFunc(reachRoots, func(r string) bool { return dir == r || strings.HasPrefix(dir, r+"/") })
}

// unreachableFuncs parses the tree and returns the functions and methods
// of the root module's non-test files that no root reaches, sorted by id,
// and the set of ids declared there.
func unreachableFuncs(t *testing.T) ([]*reachFunc, map[string]bool) {
	t.Helper()
	fset := token.NewFileSet()
	funcs := map[string][]*reachFunc{}   // dir.F -> decls (one per build-tag variant)
	methods := map[string][]*reachFunc{} // method name -> decls
	ifaces := map[string]*reachIface{}   // dir.T -> interface decl
	var roots, all []*reachFunc
	declared := map[string]bool{}

	err := filepath.WalkDir(".", func(file string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != "." && strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		src, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		imports := map[string]string{}
		for _, imp := range src.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = ""
			if p == "repro" || strings.HasPrefix(p, "repro/") {
				imports[name] = strings.TrimPrefix(strings.TrimPrefix(p, "repro"), "/")
			}
		}
		for _, decl := range src.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				f := &reachFunc{dir: dir, name: decl.Name.Name, pos: fset.Position(decl.Pos()).String(),
					node: decl, imports: imports}
				switch {
				case decl.Recv != nil:
					f.recv = recvName(decl.Recv.List[0].Type)
					methods[f.name] = append(methods[f.name], f)
				case f.name != "init":
					funcs[f.id()] = append(funcs[f.id()], f)
				}
				declared[f.id()] = true
				if f.recv == "" && (f.name == "init" || f.name == "main" && isRootDir(dir)) {
					roots = append(roots, f)
				} else if _, ok := reachAllowlist[f.id()]; ok {
					roots = append(roots, f)
				} else if !isRootDir(dir) {
					all = append(all, f)
				}
			case *ast.GenDecl:
				switch decl.Tok {
				case token.VAR, token.CONST:
					roots = append(roots, &reachFunc{dir: dir, node: decl, imports: imports})
				case token.TYPE:
					for _, spec := range decl.Specs {
						ts := spec.(*ast.TypeSpec)
						if it, ok := ts.Type.(*ast.InterfaceType); ok {
							ifaces[dir+"."+ts.Name.Name] = &reachIface{dir: dir, typ: it, imports: imports}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walk: %v", err)
	}

	reached := map[*reachFunc]bool{}
	var work []*reachFunc
	mark := func(fs ...*reachFunc) {
		for _, f := range fs {
			if !reached[f] {
				reached[f] = true
				work = append(work, f)
			}
		}
	}
	markedNames := map[string]bool{}
	markMethods := func(name string) {
		if !markedNames[name] {
			markedNames[name] = true
			mark(methods[name]...)
		}
	}
	markedIfaces := map[string]bool{}
	var markIface func(key string)
	markIface = func(key string) {
		it := ifaces[key]
		if it == nil || markedIfaces[key] {
			return
		}
		markedIfaces[key] = true
		for _, field := range it.typ.Methods.List {
			for _, name := range field.Names {
				markMethods(name.Name)
			}
			switch e := field.Type.(type) {
			case *ast.Ident: // embedded interface of the same package
				markIface(it.dir + "." + e.Name)
			case *ast.SelectorExpr:
				if x, ok := e.X.(*ast.Ident); ok {
					markIface(it.imports[x.Name] + "." + e.Sel.Name)
				}
			}
		}
	}
	for _, name := range implicitMethods {
		markMethods(name)
	}
	mark(roots...)
	for len(work) > 0 {
		f := work[len(work)-1]
		work = work[:len(work)-1]
		node := f.node
		if fd, ok := node.(*ast.FuncDecl); ok {
			node = &ast.FuncLit{Type: fd.Type, Body: fd.Body} // not its own name
		}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if dir, ok := f.imports[x.Name]; ok {
						if dir != "" {
							mark(funcs[dir+"."+n.Sel.Name]...)
							markIface(dir + "." + n.Sel.Name)
						}
						return false
					}
				}
				markMethods(n.Sel.Name)
			case *ast.Ident:
				mark(funcs[f.dir+"."+n.Name]...)
				markIface(f.dir + "." + n.Name)
			}
			return true
		})
	}

	var out []*reachFunc
	for _, f := range all {
		if !reached[f] {
			out = append(out, f)
		}
	}
	slices.SortFunc(out, func(a, b *reachFunc) int { return strings.Compare(a.id(), b.id()) })
	return out, declared
}

// recvName returns the receiver's type name: T for T, *T, T[P] and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

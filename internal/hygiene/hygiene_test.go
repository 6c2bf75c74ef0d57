// Package hygiene holds repo-wide lint-style tests: invariants that are
// about how code is written, not what it computes, enforced by parsing
// the tree so they cannot quietly rot. go vet won't catch these.
package hygiene

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestHTTPClientsHaveTimeouts enumerates every *http.Client constructed
// outside test files and requires an explicit Timeout, and bans the
// zero-Timeout escape hatches (http.DefaultClient and the package-level
// http.Get/Post/... helpers that use it). A client without a deadline
// turns one wedged peer into a goroutine leak — the distributed example,
// the router's probe loop, and every coordinator fetcher in this repo
// talk to nodes that are expected to fail.
func TestHTTPClientsHaveTimeouts(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	var violations []string

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == "testdata" || name == ".git" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		httpName, ok := importName(file, "net/http")
		if !ok {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if !isSelector(n.Type, httpName, "Client") {
					return true
				}
				if !hasField(n, "Timeout") {
					violations = append(violations,
						fmt.Sprintf("%s:%d: http.Client literal without an explicit Timeout",
							rel, fset.Position(n.Pos()).Line))
				}
			case *ast.SelectorExpr:
				if isSelector(n, httpName, "DefaultClient") {
					violations = append(violations,
						fmt.Sprintf("%s:%d: http.DefaultClient has no Timeout; construct a client",
							rel, fset.Position(n.Pos()).Line))
				}
			case *ast.CallExpr:
				for _, helper := range []string{"Get", "Post", "PostForm", "Head"} {
					if isSelector(n.Fun, httpName, helper) {
						violations = append(violations,
							fmt.Sprintf("%s:%d: package-level http.%s uses DefaultClient (no Timeout); use a shared client",
								rel, fset.Position(n.Pos()).Line, helper))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// servingExempt are the trees that host nodes in-process (examples, the
// benchmark, the experiments) rather than serve a daemon.
var servingExempt = []string{"examples", "bench", "internal/experiments"}

// estimateRoutes are the query routes amsd.MountEstimates serves on
// every tier.
var estimateRoutes = []string{"/v1/selfjoin", "/v1/join", "/v1/join/chain", "/v1/pairs"}

// TestServingCodeLivesInAmsd keeps request handling in one place:
// internal/amsd holds the one request decoder, the one body cap, the one
// set of estimate handlers and the one serving shell that amsd,
// amsrouter and joinctl -serve share. Outside it, no non-test file may
// call http.MaxBytesReader, build an http.Server literal, JSON-decode
// inside a function that takes an *http.Request (a handler decoding its
// request body by hand), or register a mux pattern for an estimate
// route. Each copy kept elsewhere once drifted from amsd's answers.
func TestServingCodeLivesInAmsd(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || name == ".git" || name == "vendor" || rel == "internal/amsd" ||
				slices.Contains(servingExempt, rel) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", p, err)
		}
		httpName, ok := importName(file, "net/http")
		if !ok {
			return nil
		}
		jsonName, hasJSON := importName(file, "encoding/json")
		seen := map[token.Pos]bool{} // a decode nested in two handlers reports once
		report := func(n ast.Node, what string) {
			if !seen[n.Pos()] {
				seen[n.Pos()] = true
				violations = append(violations, fmt.Sprintf("%s:%d: %s outside internal/amsd",
					rel, fset.Position(n.Pos()).Line, what))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isSelector(n.Type, httpName, "Server") {
					report(n, "http.Server literal (serve through amsd.Serve)")
				}
			case *ast.SelectorExpr:
				if isSelector(n, httpName, "MaxBytesReader") {
					report(n, "http.MaxBytesReader (cap bodies with amsd.CapBodies)")
				}
			case *ast.CallExpr:
				if route, ok := registersEstimateRoute(n); ok {
					report(n, fmt.Sprintf("a handler for %s (mount amsd.MountEstimates)", route))
				}
			case *ast.FuncDecl, *ast.FuncLit:
				if hasJSON && takesRequest(n, httpName) {
					ast.Inspect(n, func(m ast.Node) bool {
						if call, ok := m.(*ast.CallExpr); ok &&
							(isSelector(call.Fun, jsonName, "NewDecoder") || isSelector(call.Fun, jsonName, "Unmarshal")) {
							report(call, "JSON decoding in a request handler (decode with amsd.ReadJSON)")
						}
						return true
					})
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// wireCodec are the frame codec's exported names; every wire.Kind*
// constant belongs to it too.
var wireCodec = []string{"Frame", "ReadFrame", "DecodeFrame", "AppendFrame", "EncodeFrame"}

// TestWireCodecLivesInWire keeps amswire's client side in one place:
// wire.Stream is the one speaker that dials, numbers batches, holds them
// until their ACK and hands back the un-acked suffix, under both
// wire.Client and the ingest router. Outside internal/wire, no non-test
// file may use the frame codec (wire.Frame, ReadFrame, DecodeFrame,
// AppendFrame, EncodeFrame or a wire.Kind* constant). A second
// hand-written speaker once kept its own handshake, frame encoding and
// ACK loop, and the two disagreed on losing un-acked batches.
func TestWireCodecLivesInWire(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == ".git" || name == "vendor" || rel == "internal/wire" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return fmt.Errorf("parse %s: %w", p, err)
		}
		wireName, ok := importName(file, "amstrack/internal/wire")
		if !ok {
			return nil
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == wireName &&
				(slices.Contains(wireCodec, sel.Sel.Name) || strings.HasPrefix(sel.Sel.Name, "Kind")) {
				violations = append(violations, fmt.Sprintf("%s:%d: wire.%s outside internal/wire (speak amswire through wire.Stream)",
					rel, fset.Position(sel.Pos()).Line, sel.Sel.Name))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// TestFacadeOneNamePerThing keeps the root package's facade at one name
// per thing: no two type aliases may point at one pkg.Name, and no two
// wrappers whose body is a single return pkg.F(...) may call one
// function. A second name (Catalog beside Engine, NewCatalog beside
// NewEngine) leaves callers to find out that the two are the same.
func TestFacadeOneNamePerThing(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string][]string{} // "pkg.Name" → facade names pointing at it
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(root, e.Name()), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkgs := map[string]bool{}
		for _, imp := range file.Imports {
			if p, err := strconv.Unquote(imp.Path.Value); err == nil {
				name, _ := importName(file, p)
				pkgs[name] = true
			}
		}
		// target names the pkg.Name that x spells, if it spells one.
		target := func(x ast.Expr) (string, bool) {
			sel, ok := x.(*ast.SelectorExpr)
			if !ok {
				return "", false
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !pkgs[id.Name] {
				return "", false
			}
			return id.Name + "." + sel.Sel.Name, true
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok && ts.Assign.IsValid() {
						if to, ok := target(ts.Type); ok {
							names[to] = append(names[to], "type "+ts.Name.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil || d.Body == nil || len(d.Body.List) != 1 {
					continue
				}
				ret, ok := d.Body.List[0].(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					continue
				}
				if call, ok := ret.Results[0].(*ast.CallExpr); ok {
					if to, ok := target(call.Fun); ok {
						names[to] = append(names[to], "func "+d.Name.Name)
					}
				}
			}
		}
	}
	for to, from := range names {
		if len(from) > 1 {
			t.Errorf("facade names %s all point at %s; keep one", strings.Join(from, ", "), to)
		}
	}
}

// registersEstimateRoute reports whether call is a Handle or HandleFunc
// whose pattern ("[METHOD ][HOST]/PATH") names an estimate route.
func registersEstimateRoute(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Handle" && sel.Sel.Name != "HandleFunc") || len(call.Args) == 0 {
		return "", false
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	pattern, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", false
	}
	_, route, _ := strings.Cut(pattern, "/")
	route = "/" + route
	return route, slices.Contains(estimateRoutes, route)
}

// takesRequest reports whether a function declaration or literal has an
// *http.Request parameter.
func takesRequest(fn ast.Node, httpName string) bool {
	var typ *ast.FuncType
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		typ = fn.Type
	case *ast.FuncLit:
		typ = fn.Type
	}
	for _, f := range typ.Params.List {
		if star, ok := f.Type.(*ast.StarExpr); ok && isSelector(star.X, httpName, "Request") {
			return true
		}
	}
	return false
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// importName returns the name the file refers to pkgPath by, honoring
// aliases, and whether the file imports it at all.
func importName(file *ast.File, pkgPath string) (string, bool) {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != pkgPath {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		return path.Base(p), true
	}
	return "", false
}

func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == name
}

func hasField(lit *ast.CompositeLit, field string) bool {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
			return true
		}
	}
	return false
}

// refmodelPkg is the engine's independent reference model: test support
// that must stay out of production code and must not share code with
// the serving stack it checks.
const refmodelPkg = "amstrack/internal/refmodel"

// refmodelForbidden are the packages the reference model may not reach,
// directly or through its dependencies.
var refmodelForbidden = []string{
	"amstrack/internal/engine",
	"amstrack/internal/amsd",
	"amstrack/internal/wire",
	"amstrack/internal/router",
	"amstrack/internal/coord",
}

// TestRefmodelStaysIndependent enforces the reference model's two
// boundaries: only _test.go files may import internal/refmodel, and
// internal/refmodel (its tests included) may not import the engine or
// any serving layer, transitively. The engine's own tests import the
// model, so an engine import would already be an import cycle; this lint
// names the violation and covers the serving layers too.
func TestRefmodelStaysIndependent(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	// deps maps each module package to the imports of its non-test files.
	deps := map[string][]string{}
	var modelImports []string
	var violations []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == "testdata" || name == ".git" || name == "vendor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("parse %s: %w", p, err)
		}
		rel, _ := filepath.Rel(root, p)
		pkg := path.Join("amstrack", filepath.ToSlash(filepath.Dir(rel)))
		isTest := strings.HasSuffix(p, "_test.go")
		for _, imp := range file.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if ip == refmodelPkg && !isTest {
				violations = append(violations, fmt.Sprintf("%s: non-test file imports %s", rel, refmodelPkg))
			}
			if pkg == refmodelPkg {
				modelImports = append(modelImports, ip)
			}
			if !isTest {
				deps[pkg] = append(deps[pkg], ip)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := deps[refmodelPkg]; !ok {
		t.Fatalf("%s not found under %s", refmodelPkg, root)
	}
	// Walk the model's import graph (test files' imports as roots too).
	via := map[string]string{}
	queue := []string{}
	for _, ip := range modelImports {
		if _, seen := via[ip]; !seen {
			via[ip] = refmodelPkg
			queue = append(queue, ip)
		}
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		for _, bad := range refmodelForbidden {
			if p == bad {
				violations = append(violations, fmt.Sprintf("%s reaches %s (imported by %s)", refmodelPkg, bad, via[p]))
			}
		}
		for _, ip := range deps[p] {
			if _, seen := via[ip]; !seen {
				via[ip] = p
				queue = append(queue, ip)
			}
		}
	}
	for _, v := range violations {
		t.Error(v)
	}
}

// TestNoUnsafe keeps package unsafe out of the module: no non-test Go
// file may import it. Every path in the module, the hot ones included,
// is written in memory-safe Go, so an unsafe import is a design change
// that has to remove this lint, not a detail a review can miss. Nested
// modules (bench/) are their own modules and are not walked.
func TestNoUnsafe(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	var violations []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			if name := d.Name(); name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return fmt.Errorf("parse %s: %w", p, err)
		}
		if _, ok := importName(file, "unsafe"); ok {
			rel, _ := filepath.Rel(root, p)
			violations = append(violations, fmt.Sprintf("%s: imports unsafe", filepath.ToSlash(rel)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
}

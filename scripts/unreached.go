//go:build ignore

// unreached fails when internal/dsp, internal/phy, internal/channel or
// internal/ap declares a function, method or type that nothing runs.
//
// It does name-level reachability over the non-test Go files of the
// repository (perfbench/ included, read only). The roots are every main
// and init function, every package-level variable whose initializer
// makes a call, and the exported API of the root mmtag package. From a
// reached declaration:
//   - an identifier reaches the same package's top-level declaration of
//     that name, and pkg.Name reaches the named package's declaration;
//   - any other x.Name selects every method called Name, and a selected
//     method counts as reached once its receiver type is reached;
//   - methods the standard library calls through an interface (String,
//     Error, MarshalJSON, ServeHTTP, ...) count as selected.
//
// Name-level resolution over-approximates what runs, so a listed
// declaration is certainly dead; tests do not count as callers.
//
// The pending list names dead declarations whose deletion, with their
// tests, is left to a later change. They do not fail the check, but a
// pending entry that is no longer dead does, so the list only shrinks.
//
// Usage: go run scripts/unreached.go   (from the repo root)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const module = "mmtag"

// gated lists the packages whose unreached declarations fail the check.
var gated = []string{"internal/dsp", "internal/phy", "internal/channel", "internal/ap"}

// pending lists, by label, the dead declarations the check tolerates
// until they are deleted.
var pending = map[string]bool{
	// internal/dsp/signal.go
	"dsp.NCO (type)": true, "dsp.NewNCO": true, "dsp.(*NCO).SetFrequency": true,
	"dsp.(*NCO).Next": true, "dsp.(*NCO).Block": true, "dsp.(*NCO).Phase": true,
	"dsp.Tone": true, "dsp.Mix": true, "dsp.Chirp": true, "dsp.Scale": true, "dsp.Add": true,
	"dsp.Delay": true, "dsp.FractionalDelay": true, "dsp.Power": true, "dsp.RMS": true,
	"dsp.Normalize": true, "dsp.MagnitudeSquared": true, "dsp.Decimate": true,
	"dsp.Upsample": true, "dsp.PeakIndex": true, "dsp.Goertzel": true,
	"dsp.GoertzelPower": true, "dsp.DCBlocker (type)": true, "dsp.NewDCBlocker": true,
	"dsp.(*DCBlocker).Process": true, "dsp.(*DCBlocker).Reset": true, "dsp.cmplxAbs": true,
	// internal/dsp/window.go
	"dsp.Window (type)": true, "dsp.Window.String": true, "dsp.Window.Coefficients": true,
	"dsp.ApplyWindow": true, "dsp.CoherentGain": true, "dsp.NoiseBandwidth": true,
}

// implicit holds method names the standard library calls through an
// interface, so no selector in the repository names them.
var implicit = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true, "Set": true,
}

// decl is one top-level declaration: a function, method, type, or a
// package-level variable or constant.
type decl struct {
	pkg, name string
	recv      string // receiver type name, methods only
	ptr       bool   // pointer receiver, methods only
	kind      string // "func", "method", "type" or "value"
	runs      bool   // a value whose initializer makes a call
	pos       token.Position
	refs      []ref
}

// ref is one outgoing name reference: a top-level name in pkg, or (pkg
// empty) a selected method name.
type ref struct{ pkg, name string }

func key(pkg, name string) string { return pkg + "." + name }

func main() {
	fset := token.NewFileSet()
	top := map[string]*decl{}       // pkg.Name -> decl
	methods := map[string][]*decl{} // method name -> decls
	var all []*decl
	var roots []*decl

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "scripts") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		if ignored(f) {
			return nil
		}
		pkg := module
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg = module + "/" + dir
		}
		for _, dd := range fileDecls(fset, f, pkg) {
			all = append(all, dd)
			switch dd.kind {
			case "method":
				methods[dd.name] = append(methods[dd.name], dd)
			default:
				top[key(pkg, dd.name)] = dd
			}
			if isRoot(f, dd) {
				roots = append(roots, dd)
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(2)
	}

	reached := map[*decl]bool{}
	selected := map[string]bool{}
	for name := range implicit {
		selected[name] = true
	}
	queue := append([]*decl(nil), roots...)
	for len(queue) > 0 {
		for len(queue) > 0 {
			d := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if reached[d] {
				continue
			}
			reached[d] = true
			for _, r := range d.refs {
				if r.pkg == "" {
					selected[r.name] = true
				} else if t := top[key(r.pkg, r.name)]; t != nil && !reached[t] {
					queue = append(queue, t)
				}
			}
		}
		for name := range selected {
			for _, m := range methods[name] {
				if !reached[m] && reached[top[key(m.pkg, m.recv)]] {
					queue = append(queue, m)
				}
			}
		}
	}

	var dead []*decl
	stale := map[string]bool{}
	for label := range pending {
		stale[label] = true
	}
	for _, d := range all {
		if d.kind == "value" || reached[d] || !isGated(d.pkg) {
			continue
		}
		if pending[d.label()] {
			delete(stale, d.label())
			continue
		}
		dead = append(dead, d)
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	if len(dead) == 0 && len(stale) == 0 {
		fmt.Printf("unreached: OK (%s; %d pending deletion)\n", strings.Join(gated, ", "), len(pending))
		return
	}
	if len(dead) > 0 {
		fmt.Printf("unreached: %d declarations in %s that no binary, example, perfbench file or root-package export reaches:\n",
			len(dead), strings.Join(gated, ", "))
		for _, d := range dead {
			fmt.Printf("  %s:%d\t%s\n", d.pos.Filename, d.pos.Line, d.label())
		}
	}
	if len(stale) > 0 {
		labels := make([]string, 0, len(stale))
		for label := range stale {
			labels = append(labels, label)
		}
		sort.Strings(labels)
		fmt.Printf("unreached: %d pending entries are no longer unreached declarations; drop them from pending:\n", len(labels))
		for _, label := range labels {
			fmt.Printf("  %s\n", label)
		}
	}
	os.Exit(1)
}

// label names d as pkg.Name, pkg.Recv.Name or pkg.(*Recv).Name.
func (d *decl) label() string {
	short := d.pkg[strings.LastIndex(d.pkg, "/")+1:]
	switch {
	case d.kind == "method" && d.ptr:
		return fmt.Sprintf("%s.(*%s).%s", short, d.recv, d.name)
	case d.kind == "method":
		return fmt.Sprintf("%s.%s.%s", short, d.recv, d.name)
	case d.kind == "type":
		return fmt.Sprintf("%s.%s (type)", short, d.name)
	}
	return short + "." + d.name
}

func isGated(pkg string) bool {
	for _, g := range gated {
		if pkg == module+"/"+g {
			return true
		}
	}
	return false
}

// ignored reports whether f carries a //go:build ignore constraint.
func ignored(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if strings.TrimSpace(c.Text) == "//go:build ignore" {
				return true
			}
		}
	}
	return false
}

// isRoot reports whether d runs (or is callable from outside the
// module) without any reference from the repository's own code.
func isRoot(f *ast.File, d *decl) bool {
	switch {
	case d.kind == "func" && d.name == "init":
		return true
	case d.kind == "func" && d.name == "main" && f.Name.Name == "main":
		return true
	case d.runs:
		return true
	case d.pkg == module && ast.IsExported(d.name):
		return d.kind != "method" || ast.IsExported(d.recv)
	}
	return false
}

// fileDecls returns the top-level declarations of f with their
// outgoing references.
func fileDecls(fset *token.FileSet, f *ast.File, pkg string) []*decl {
	imports := map[string]string{}
	for _, im := range f.Imports {
		path := strings.Trim(im.Path.Value, `"`)
		name := path[strings.LastIndex(path, "/")+1:]
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = path
	}
	var out []*decl
	for _, gd := range f.Decls {
		switch gd := gd.(type) {
		case *ast.FuncDecl:
			d := &decl{pkg: pkg, name: gd.Name.Name, kind: "func", pos: fset.Position(gd.Pos())}
			if gd.Recv != nil && len(gd.Recv.List) == 1 {
				rt := gd.Recv.List[0].Type
				_, d.ptr = rt.(*ast.StarExpr)
				d.kind, d.recv = "method", recvName(rt)
			}
			d.refs = collect(imports, pkg, gd.Type)
			if gd.Body != nil {
				d.refs = append(d.refs, collect(imports, pkg, gd.Body)...)
			}
			out = append(out, d)
		case *ast.GenDecl:
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					refs := collect(imports, pkg, s.Type)
					if s.TypeParams != nil {
						refs = append(refs, collect(imports, pkg, s.TypeParams)...)
					}
					out = append(out, &decl{pkg: pkg, name: s.Name.Name, kind: "type",
						pos: fset.Position(s.Pos()), refs: refs})
				case *ast.ValueSpec:
					var refs []ref
					if s.Type != nil {
						refs = collect(imports, pkg, s.Type)
					}
					runs := false
					for _, v := range s.Values {
						refs = append(refs, collect(imports, pkg, v)...)
						ast.Inspect(v, func(n ast.Node) bool {
							_, call := n.(*ast.CallExpr)
							runs = runs || call
							return true
						})
					}
					for _, n := range s.Names {
						if n.Name == "_" && !runs {
							continue
						}
						out = append(out, &decl{pkg: pkg, name: n.Name, kind: "value", runs: runs,
							pos: fset.Position(n.Pos()), refs: refs})
					}
				}
			}
		}
	}
	return out
}

// recvName strips pointers and type parameters from a receiver type.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// collect gathers the name references made inside n.
func collect(imports map[string]string, pkg string, n ast.Node) []ref {
	var refs []ref
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok {
				if path, ok := imports[id.Name]; ok {
					refs = append(refs, ref{path, n.Sel.Name})
					return false
				}
			}
			refs = append(refs, ref{"", n.Sel.Name})
			ast.Inspect(n.X, visit)
			return false
		case *ast.Ident:
			refs = append(refs, ref{pkg, n.Name})
		}
		return true
	}
	ast.Inspect(n, visit)
	return refs
}

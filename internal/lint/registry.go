package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RegistryAnalyzer is the static port of broadcast's registry
// completeness test: in any package with a schedule registry (a struct
// type carrying scalarName/batchName fields), every exported
// schedule-shaped function — scalar entry points returning
// (Result, error), (MultiResult, error) or (MultiResult, [][]byte, error)
// and batch twins returning ([]Result, error) or ([]MultiResult, error) —
// must be reachable from exactly one registry entry, and every entry must
// name real functions. An entry may leave batchName empty (a schedule
// without a lockstep twin); it then registers only its scalar function.
// Running as an analyzer, the check fires from `go vet` on every build
// instead of only inside broadcast's own test binary.
var RegistryAnalyzer = &Analyzer{
	Name: "registry",
	Doc: "require every exported schedule-shaped function to be wired into exactly one\n" +
		"schedule-registry entry (the static port of broadcast's completeness test)",
	Run: runRegistry,
}

// scheduleShapes are the result-tuple spellings that mark a function as a
// schedule entry point, rendered relative to the package.
var scheduleShapes = map[string]bool{
	"(Result, error)":                true,
	"([]Result, error)":              true,
	"(MultiResult, error)":           true,
	"(MultiResult, [][]byte, error)": true,
	"([]MultiResult, error)":         true,
}

func runRegistry(pass *Pass) error {
	if !hasScheduleRegistry(pass) {
		return nil
	}

	qualifier := types.RelativeTo(pass.Pkg)
	found := make(map[string]*ast.FuncDecl) // exported schedule-shaped funcs
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() {
				continue
			}
			obj, ok := pass.Info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			res := obj.Signature().Results()
			if res == nil || res.Len() == 0 {
				continue
			}
			parts := make([]string, res.Len())
			for i := 0; i < res.Len(); i++ {
				parts[i] = types.TypeString(res.At(i).Type(), qualifier)
			}
			sig := "(" + strings.Join(parts, ", ") + ")"
			if scheduleShapes[sig] {
				found[fn.Name.Name] = fn
			}
		}
	}

	registered := collectRegistrations(pass)

	byName := make(map[string][]registration)
	for _, r := range registered {
		byName[r.fname] = append(byName[r.fname], r)
	}
	names := make([]string, 0, len(byName))
	for n := range byName { //lint:deterministic-ok sorted below before reporting
		names = append(names, n)
	}
	sort.Strings(names)
	for _, fname := range names {
		regs := byName[fname]
		for _, dup := range regs[1:] {
			pass.Reportf(dup.pos,
				"%s is reachable from two registry entries (%s and %s): every schedule function belongs to exactly one entry",
				fname, regs[0].entry, dup.entry)
		}
		if _, ok := found[fname]; !ok {
			pass.Reportf(regs[0].pos,
				"registry entry %s wraps %s, which is not an exported schedule-shaped function of this package",
				regs[0].entry, fname)
		}
	}
	fnames := make([]string, 0, len(found))
	for n := range found { //lint:deterministic-ok sorted below before reporting
		fnames = append(fnames, n)
	}
	sort.Strings(fnames)
	for _, fname := range fnames {
		if _, ok := byName[fname]; !ok {
			pass.Reportf(found[fname].Pos(),
				"exported schedule-shaped function %s is not reachable from any registry entry: wire it into the registry (or unexport it)",
				fname)
		}
	}
	return nil
}

// hasScheduleRegistry reports whether the package declares a registry
// entry type: a struct with both scalarName and batchName string fields.
func hasScheduleRegistry(pass *Pass) bool {
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			// An alias re-exporting another package's registry type (the
			// root facade does this) does not make this package the
			// registry's home.
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var scalar, batch bool
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if b, ok := f.Type().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
				continue
			}
			switch f.Name() {
			case "scalarName":
				scalar = true
			case "batchName":
				batch = true
			}
		}
		if scalar && batch {
			return true
		}
	}
	return false
}

// registration is one (entry, wrapped-function-name) pair found in the
// registry literal.
type registration struct {
	entry string // registry entry name, for diagnostics
	fname string // wrapped function name
	pos   token.Pos
}

// collectRegistrations finds every scalarName/batchName registration:
// directly keyed composite-literal fields, and string arguments passed to
// helper constructors whose parameters are named scalarName/batchName
// (broadcast's singleEntry/multiEntry).
func collectRegistrations(pass *Pass) []registration {
	var out []registration
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				entry := ""
				var regs []registration
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					switch key.Name {
					case "Name":
						entry = stringLiteral(pass, kv.Value)
					case "scalarName", "batchName":
						if s := stringLiteral(pass, kv.Value); s != "" {
							regs = append(regs, registration{fname: s, pos: kv.Value.Pos()})
						}
					}
				}
				for i := range regs {
					regs[i].entry = entryLabel(entry)
					out = append(out, regs[i])
				}
			case *ast.CallExpr:
				out = append(out, helperRegistrations(pass, n)...)
			}
			return true
		})
	}
	return out
}

// helperRegistrations extracts registrations from a call to an entry
// constructor: any function with parameters literally named scalarName
// and batchName (string), e.g. singleEntry/multiEntry.
func helperRegistrations(pass *Pass, call *ast.CallExpr) []registration {
	var callee *types.Func
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		callee, _ = pass.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		callee, _ = pass.Info.Uses[fun.Sel].(*types.Func)
	}
	if callee == nil {
		return nil
	}
	sig := callee.Signature()
	params := sig.Params()
	var idxs []int
	nameIdx := -1
	for i := 0; i < params.Len(); i++ {
		switch params.At(i).Name() {
		case "scalarName", "batchName":
			idxs = append(idxs, i)
		case "name":
			nameIdx = i
		}
	}
	if len(idxs) == 0 {
		return nil
	}
	entry := ""
	if nameIdx >= 0 && nameIdx < len(call.Args) {
		entry = stringLiteral(pass, call.Args[nameIdx])
	}
	var out []registration
	for _, i := range idxs {
		if i >= len(call.Args) {
			continue
		}
		if s := stringLiteral(pass, call.Args[i]); s != "" {
			out = append(out, registration{entry: entryLabel(entry), fname: s, pos: call.Args[i].Pos()})
		}
	}
	return out
}

func entryLabel(name string) string {
	if name == "" {
		return "(unnamed)"
	}
	return fmt.Sprintf("%q", name)
}

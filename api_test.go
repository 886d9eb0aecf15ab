package csj_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportedFunctions pins the package's exported top-level functions,
// like the Go distribution's api/ files: the signatures read from the
// non-test source must equal testdata/api.txt, one per line, sorted.
// Adding, removing or reshaping an entry point means editing that list.
func TestExportedFunctions(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var got []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
				got = append(got, "func "+fd.Name.Name+signature(t, fset, fd.Type))
			}
		}
	}
	slices.Sort(got)

	raw, err := os.ReadFile(filepath.Join("testdata", "api.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	for _, line := range got {
		if !slices.Contains(want, line) {
			t.Errorf("exported but not in testdata/api.txt: %s", line)
		}
	}
	for _, line := range want {
		if !slices.Contains(got, line) {
			t.Errorf("in testdata/api.txt but not exported: %s", line)
		}
	}
}

// signature renders a function type without its parameter names, as
// "(T1, T2) R" or "(T1) (R1, R2)".
func signature(t *testing.T, fset *token.FileSet, ft *ast.FuncType) string {
	types := func(fl *ast.FieldList) []string {
		var out []string
		if fl == nil {
			return out
		}
		for _, field := range fl.List {
			var buf bytes.Buffer
			if err := printer.Fprint(&buf, fset, field.Type); err != nil {
				t.Fatal(err)
			}
			for range max(1, len(field.Names)) {
				out = append(out, buf.String())
			}
		}
		return out
	}
	sig := "(" + strings.Join(types(ft.Params), ", ") + ")"
	switch results := types(ft.Results); len(results) {
	case 0:
	case 1:
		sig += " " + results[0]
	default:
		sig += " (" + strings.Join(results, ", ") + ")"
	}
	return sig
}

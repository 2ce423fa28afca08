package biglittle_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsNameExistingCommands fails when a document tells the reader to use
// a command (cmd/<name>, go run ./cmd/<name>) that has no cmd/<name>
// directory, so deleting or renaming a command cannot leave stale
// instructions behind. CHANGES.md and ROADMAP.md are history, not
// instructions, and are not scanned.
func TestDocsNameExistingCommands(t *testing.T) {
	cmdRef := regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	for _, doc := range []string{
		"README.md", "DESIGN.md", "EXPERIMENTS.md", "Makefile",
		".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md",
	} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("cmd", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d names cmd/%s, which does not exist", doc, i+1, m[1])
				}
			}
		}
	}
}

// TestFacadeNamesHaveCallers keeps the root package's exported surface equal
// to what its callers use. It fails when an exported top-level name declared
// in a root non-test file has no biglittle.<Name> reference in cmd/,
// examples/, perfbench/ or any *_test.go, and when a document names a
// biglittle.<Name> the root package does not declare. A type alias without
// such a reference may stay only when a function that has one returns it and
// README.md or EXPERIMENTS.md names it, so the documented type keeps a name
// callers can write.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]token.Position{}
	aliases := map[string]bool{}
	returns := map[string][]string{} // function name -> identifiers in its results
	for _, f := range pkgs["biglittle"].Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					declared[d.Name.Name] = fset.Position(d.Pos())
					if d.Type.Results != nil {
						ast.Inspect(d.Type.Results, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								returns[d.Name.Name] = append(returns[d.Name.Name], id.Name)
							}
							return true
						})
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declared[s.Name.Name] = fset.Position(s.Pos())
						aliases[s.Name.Name] = s.Assign.IsValid()
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[n.Name] = fset.Position(n.Pos())
						}
					}
				}
			}
		}
	}

	used := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		caller := strings.HasSuffix(path, "_test.go")
		for _, dir := range []string{"cmd", "examples", "perfbench"} {
			caller = caller || strings.HasPrefix(path, dir+string(filepath.Separator))
		}
		if !caller || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "biglittle" {
				local = "biglittle"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var guide strings.Builder
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		guide.Write(data)
	}
	documented := func(name string) bool {
		return regexp.MustCompile(`\b` + name + `\b`).MatchString(guide.String())
	}
	returnedByUsed := func(name string) bool {
		for fn, ids := range returns {
			for _, id := range ids {
				if id == name && used[fn] {
					return true
				}
			}
		}
		return false
	}
	var unused []string
	for name, pos := range declared {
		if !ast.IsExported(name) || used[name] {
			continue
		}
		if aliases[name] && returnedByUsed(name) && documented(name) {
			continue
		}
		unused = append(unused, pos.String()+": "+name)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no caller uses it; unexport or delete it", u)
	}

	docRef := regexp.MustCompile(`\bbiglittle\.([A-Z][A-Za-z0-9_]*)`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range docRef.FindAllStringSubmatch(line, -1) {
				if _, ok := declared[m[1]]; !ok {
					t.Errorf("%s:%d names biglittle.%s, which the root package does not declare", doc, i+1, m[1])
				}
			}
		}
	}
}

// Command docscheck is the `make docs-check` gate: it keeps the prose and
// the code honest. It (1) checks every relative markdown link in README.md
// and docs/*.md resolves to an existing file (and every same-file #anchor
// to a real heading), and (2) asserts exported-symbol doc-comment coverage
// for the public ckprivacy package, internal/server, internal/store,
// internal/replica, internal/anonymize, internal/bucket, internal/lattice,
// internal/hierarchy, internal/dataload, internal/table, internal/core and
// the ckvet suite — every exported
// type, function, method, constant and variable must carry a doc comment,
// so pkg.go.dev never renders a bare name. It exits non-zero listing every
// offender.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	var problems []string
	problems = append(problems, checkMarkdown()...)
	problems = append(problems, checkDocComments(".", "ckprivacy")...)
	problems = append(problems, checkDocComments("internal/server", "server")...)
	problems = append(problems, checkDocComments("internal/store", "store")...)
	// The follower client speaks the leader's replication wire contract
	// across process boundaries; its exported surface stays documented.
	problems = append(problems, checkDocComments("internal/replica", "replica")...)
	// The sweep planner and the arena pool cross goroutine and package
	// boundaries on documented contracts; keep those contracts written.
	problems = append(problems, checkDocComments("internal/anonymize", "anonymize")...)
	problems = append(problems, checkDocComments("internal/bucket", "bucket")...)
	// The lattice searches' batch forms and the serial oracles they are
	// tested against share documented contracts (identical nodes and
	// Stats); keep them written down.
	problems = append(problems, checkDocComments("internal/lattice", "lattice")...)
	// NewProblem's input contract lives in these packages' docs: the
	// nesting law and coverage Compile enforces, the closed domains bundle
	// hierarchies are built over, the columnar view every problem computes
	// on, and the engine a problem injects.
	problems = append(problems, checkDocComments("internal/hierarchy", "hierarchy")...)
	problems = append(problems, checkDocComments("internal/dataload", "dataload")...)
	problems = append(problems, checkDocComments("internal/table", "table")...)
	problems = append(problems, checkDocComments("internal/core", "core")...)
	problems = append(problems, checkDocComments("docs", "docs")...)
	// The ckvet suite documents the invariants it enforces; a bare
	// exported name there would leave an analyzer without its contract.
	problems = append(problems, checkDocComments("internal/tools/ckvet", "main")...)
	problems = append(problems, checkDocComments("internal/tools/ckvet/analysis", "analysis")...)
	problems = append(problems, checkDocComments("internal/tools/ckvet/analysis/analysistest", "analysistest")...)
	for _, check := range []string{"maporder", "errenvelope", "atomicwrite", "snapshotmut", "poolleak"} {
		problems = append(problems, checkDocComments("internal/tools/ckvet/checks/"+check, check)...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links and doc-comment coverage OK")
}

// ---- markdown link checking ----

// linkRE matches inline markdown links [text](target); images share the
// syntax and are checked the same way.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// markdownFiles returns README.md plus every markdown file under docs/.
func markdownFiles() ([]string, error) {
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files, nil
}

func checkMarkdown() []string {
	files, err := markdownFiles()
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		text := string(data)
		anchors := headingAnchors(text)
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			case strings.HasPrefix(target, "#"):
				if !anchors[strings.TrimPrefix(target, "#")] {
					problems = append(problems,
						fmt.Sprintf("%s: anchor %s does not match any heading", f, target))
				}
			default:
				path := target
				if i := strings.IndexByte(path, '#'); i >= 0 {
					path = path[:i]
				}
				resolved := filepath.Join(filepath.Dir(f), path)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems,
						fmt.Sprintf("%s: link target %q does not exist (%s)", f, target, resolved))
				}
			}
		}
	}
	return problems
}

// headingAnchors collects GitHub-style anchor slugs for every heading:
// lowercase, spaces to dashes, punctuation dropped.
func headingAnchors(text string) map[string]bool {
	anchors := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		title := strings.TrimSpace(strings.TrimLeft(line, "#"))
		slug := strings.ToLower(title)
		slug = strings.ReplaceAll(slug, " ", "-")
		slug = regexp.MustCompile(`[^a-z0-9\-_]`).ReplaceAllString(slug, "")
		anchors[slug] = true
	}
	return anchors
}

// ---- doc-comment coverage ----

// checkDocComments parses the non-test Go files of one directory and
// reports every exported declaration lacking a doc comment.
func checkDocComments(dir, wantPkg string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: parsing %s: %v", dir, err)}
	}
	pkg, ok := pkgs[wantPkg]
	if !ok {
		return []string{fmt.Sprintf("docscheck: package %q not found in %s", wantPkg, dir)}
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				if d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return problems
}

// exportedRecv reports whether a function has no receiver or an exported
// receiver type (methods on unexported types never render on pkg.go.dev).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// checkGenDecl walks a const/var/type declaration. A doc comment on the
// grouped declaration covers its specs; otherwise each exported spec
// needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	kind := map[token.Token]string{token.CONST: "const", token.VAR: "var", token.TYPE: "type"}[d.Tok]
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
				report(sp.Pos(), kind, sp.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
					report(sp.Pos(), kind, name.Name)
				}
			}
		}
	}
}

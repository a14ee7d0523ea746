// Command doccheck keeps the documentation honest. It enforces nine
// invariants that otherwise rot silently:
//
//  1. Every package under internal/ carries a package comment (godoc's
//     "Package <name> ..." paragraph), so `go doc` gives a real answer for
//     every layer of the pipeline.
//  2. Every `go run ./cmd/<name>` invocation quoted in a fenced code block
//     of README.md, DESIGN.md, ARCHITECTURE.md or EXPERIMENTS.md refers to
//     a command that exists, and every flag it passes is actually defined
//     by that command's source — so the walkthroughs stay runnable as the
//     CLIs evolve.
//  3. Every cmd/* binary is covered by README.md — the command is named
//     ("cmd/<name>") and every flag it defines appears as "-<flag>"
//     somewhere in the README — so a new command or flag cannot land
//     undocumented.
//  4. Every flag-shaped token in an inline code span of EXPERIMENTS.md
//     ("`fsprune -dead`") names a flag some command actually defines, so
//     the experiment commentary cannot reference a flag that was renamed
//     or removed.
//  5. Every Test…/Fuzz… identifier named in the documents (README.md,
//     DESIGN.md, ARCHITECTURE.md, EXPERIMENTS.md, benchmark/README.md) is
//     a function some _test.go file defines, so a soundness paragraph
//     cannot outlive the oracle it cites.
//  6. Every entry of DESIGN.md's contract ledger (a "### 3.N" heading
//     under "## 3.") names at least one existing oracle test in its
//     "**Oracles:**" paragraph and at least one existing Makefile target
//     in its "**Make:**" paragraph, so no contract stands unpinned.
//  7. Every section reference (§N or §N.M) in a Go comment under cmd/,
//     internal/ or examples/, or in one of the documents, names an
//     existing DESIGN.md heading.
//  8. Every pkg.Name reference to an internal/ package in the documents
//     names a top-level declaration of that package, and every
//     pkg.Type.Member reference names a method or field of that type.
//  9. Every `make <target>` in an inline code span or a fenced code block
//     of the documents names a Makefile target.
//
// Run from the repository root (as `make doccheck` does); exits non-zero
// with one line per violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// docs are the markdown files rules 5 and 7–9 read; rules 2–4 and 6 read
// the ones they name.
var docs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "benchmark/README.md"}

func main() {
	if violations := check(); len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "doccheck:", v)
		}
		os.Exit(1)
	}
	fmt.Println("doccheck: package comments, CLI coverage, documented invocations, cited tests, the contract ledger, section references, identifiers and make targets are clean")
}

// check loads the tree in the working directory and runs the nine rules
// over it, returning their violations in rule order. A tree that cannot
// be read whole is not checked: check returns what could not be read.
func check() []string {
	t := load()
	if len(t.violations) > 0 {
		return t.violations
	}
	for _, rule := range []func(*tree){
		(*tree).packageComments,
		(*tree).docCommands,
		(*tree).cmdCoverage,
		(*tree).inlineFlags,
		(*tree).docTests,
		(*tree).ledger,
		(*tree).sectionRefs,
		(*tree).identifiers,
		(*tree).makeTargets,
	} {
		rule(t)
	}
	return t.violations
}

// A line of a document is prose, a code-fence delimiter (a line opening
// with ```), or a line inside a fence.
const (
	prose = iota
	delimiter
	fenced
)

type line struct {
	text string
	kind int
}

var inlineSpanRE = regexp.MustCompile("`[^`\n]+`")

// code returns the code a line quotes: the whole line inside a fence, its
// inline code spans in prose, and nothing on a fence delimiter.
func (l line) code() []string {
	switch l.kind {
	case fenced:
		return []string{l.text}
	case prose:
		return inlineSpanRE.FindAllString(l.text, -1)
	}
	return nil
}

// doc is one markdown document.
type doc struct {
	text  string
	lines []line
	open  bool // the document ends inside a code fence
}

// tree is the table of names the rules check citations against, and the
// violations they report.
type tree struct {
	fset       *token.FileSet
	files      []*ast.File // every Go file under cmd/, internal/ and examples/
	docs       map[string]*doc
	tests      map[string]bool            // Test…/Fuzz… functions of every _test.go file
	targets    map[string]bool            // the Makefile's rule targets
	cmds       map[string]map[string]bool // cmd/<name> -> the flags its files define
	pkgDocs    map[string]bool            // internal/ package dir -> has a package comment
	pkgs       map[string]bool            // internal package names
	names      map[string]bool            // "pkg.Name" declared, and "pkg.Type.Member"
	closed     map[string]bool            // "pkg.Type" that neither embeds, aliases nor names another type
	violations []string
}

func (t *tree) report(format string, args ...any) {
	t.violations = append(t.violations, fmt.Sprintf(format, args...))
}

var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	makeRuleRE = regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*)\s*:([^=]|$)`)
)

// load walks the working directory once, skipping hidden directories. It
// takes the test names of every _test.go file from its bytes, parses every
// Go file under cmd/, internal/ and examples/ once, with comments, and reads
// the Makefile and each document once. It reports what it cannot read.
func load() *tree {
	t := &tree{
		fset:    token.NewFileSet(),
		docs:    map[string]*doc{},
		tests:   map[string]bool{},
		targets: map[string]bool{},
		cmds:    map[string]map[string]bool{},
		pkgDocs: map[string]bool{},
		pkgs:    map[string]bool{},
		names:   map[string]bool{},
		closed:  map[string]bool{},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if filepath.Dir(path) == "cmd" {
				t.cmds[d.Name()] = map[string]bool{}
			}
			return nil
		}
		dir := strings.Split(filepath.ToSlash(filepath.Dir(path)), "/")
		test := strings.HasSuffix(path, "_test.go")
		source := strings.HasSuffix(path, ".go") && (dir[0] == "cmd" || dir[0] == "internal" || dir[0] == "examples")
		if !test && !source {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllSubmatch(data, -1) {
			t.tests[string(m[1])] = true
		}
		if !source {
			return nil
		}
		f, err := parser.ParseFile(t.fset, path, data, parser.ParseComments)
		if err != nil {
			return err
		}
		t.files = append(t.files, f)
		switch {
		case dir[0] == "cmd" && len(dir) == 2:
			collectFlags(f, t.cmds[dir[1]])
		case dir[0] == "internal" && !test:
			pkg := filepath.Dir(path)
			t.pkgDocs[pkg] = t.pkgDocs[pkg] || f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package ")
			if len(dir) == 2 {
				t.declare(f)
			}
		}
		return nil
	})
	if err != nil {
		t.report("%v", err)
	}
	if data, err := os.ReadFile("Makefile"); err != nil {
		t.report("%v", err)
	} else {
		for _, m := range makeRuleRE.FindAllSubmatch(data, -1) {
			t.targets[string(m[1])] = true
		}
	}
	for _, file := range docs {
		data, err := os.ReadFile(file)
		if err != nil {
			t.report("%v", err)
			continue
		}
		d := &doc{text: string(data)}
		for _, s := range strings.Split(d.text, "\n") {
			kind := prose
			switch {
			case strings.HasPrefix(strings.TrimSpace(s), "```"):
				kind, d.open = delimiter, !d.open
			case d.open:
				kind = fenced
			}
			d.lines = append(d.lines, line{s, kind})
		}
		t.docs[file] = d
	}
	return t
}

// collectFlags adds the names of the flags f defines via the flag package
// (flag.String, flag.Int, flag.BoolVar, ...) to flags.
func collectFlags(f *ast.File, flags map[string]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "flag" {
			return true
		}
		// flag.Xxx(name, ...) or flag.XxxVar(&v, name, ...).
		arg := call.Args[0]
		if strings.HasSuffix(sel.Sel.Name, "Var") && len(call.Args) > 1 {
			arg = call.Args[1]
		}
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			flags[strings.Trim(lit.Value, `"`)] = true
		}
		return true
	})
}

// declare records the top-level names of a non-test file of an internal
// package, and the methods and fields of the types it declares.
func (t *tree) declare(f *ast.File) {
	pkg := f.Name.Name
	t.pkgs[pkg] = true
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			name := pkg + "." + d.Name.Name
			if d.Recv != nil {
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				id, ok := recv.(*ast.Ident)
				if !ok {
					continue
				}
				name = pkg + "." + id.Name + "." + d.Name.Name
			}
			t.names[name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					typ := pkg + "." + spec.Name.Name
					t.names[typ], t.closed[typ] = true, !spec.Assign.IsValid() && !namedType(spec.Type)
					var fields []*ast.Field
					switch s := spec.Type.(type) {
					case *ast.StructType:
						fields = s.Fields.List
					case *ast.InterfaceType:
						fields = s.Methods.List
					}
					for _, f := range fields {
						t.closed[typ] = t.closed[typ] && len(f.Names) > 0
						for _, id := range f.Names {
							t.names[typ+"."+id.Name] = true
						}
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						t.names[pkg+"."+id.Name] = true
					}
				}
			}
		}
	}
}

// namedType reports whether a type declaration's type expression names
// another declared type ("type Spec journal.Fingerprint"), whose fields the
// new type takes: a type of another package or of this one, generic or
// not, but not a predeclared one.
func namedType(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.IndexListExpr:
		return true
	case *ast.Ident:
		return types.Universe.Lookup(e.Name) == nil
	}
	return false
}

// sorted returns a map's keys in order.
func sorted[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// packageComments (rule 1) reports every package directory under internal/
// whose non-test files carry no package comment at all.
func (t *tree) packageComments() {
	for _, dir := range sorted(t.pkgDocs) {
		if !t.pkgDocs[dir] {
			t.report("%s: no package comment (want a \"Package %s ...\" doc comment)", dir, filepath.Base(dir))
		}
	}
}

var runRE = regexp.MustCompile(`go run \./cmd/([a-z]+)([^\n|>]*)`)

// runFlagRE finds the flags an invocation passes: tokens that open with
// dashes and a lowercase letter, up to any "=". Placeholders ("-<n>") and
// negative numbers are not flags.
var runFlagRE = regexp.MustCompile(`(?:^|\s)-+([a-z][^\s=]*)`)

// docCommands (rule 2) validates the `go run ./cmd/<name> ...` invocations
// in the fenced code blocks of the walkthrough documents: the command
// directory and every -flag against the command's flag definitions.
func (t *tree) docCommands() {
	for _, file := range []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md"} {
		d := t.docs[file]
		for lineno, l := range d.lines {
			if l.kind != fenced {
				continue
			}
			for _, m := range runRE.FindAllStringSubmatch(l.text, -1) {
				name, rest := m[1], m[2]
				flags, ok := t.cmds[name]
				if !ok {
					t.report("%s:%d: documented command cmd/%s does not exist", file, lineno+1, name)
					continue
				}
				for _, f := range runFlagRE.FindAllStringSubmatch(rest, -1) {
					if !flags[f[1]] {
						t.report("%s:%d: cmd/%s defines no flag -%s", file, lineno+1, name, f[1])
					}
				}
			}
		}
		if d.open {
			t.report("%s: unterminated code fence", file)
		}
	}
}

// docFlagRE finds the flags a text documents: "-<flag>" after start-of-text,
// whitespace, '`' or '(', so "-by" in "-rank-by" documents no -by, and with
// every flag character after it, so "-topology" does not document -top.
var docFlagRE = regexp.MustCompile("(?:^|[ \t\n`(])-([-a-z0-9]+)")

// cmdCoverage (rule 3) requires every cmd/* binary to be documented in
// README.md: the command must be named ("cmd/<name>") and every flag it
// defines must appear somewhere in the README as "-<flag>".
func (t *tree) cmdCoverage() {
	d := t.docs["README.md"]
	documented := map[string]bool{}
	for _, m := range docFlagRE.FindAllStringSubmatch(d.text, -1) {
		documented[m[1]] = true
	}
	for _, name := range sorted(t.cmds) {
		if !strings.Contains(d.text, "cmd/"+name) {
			t.report("README.md: cmd/%s is not documented (no \"cmd/%s\" mention)", name, name)
			continue
		}
		for _, f := range sorted(t.cmds[name]) {
			if !documented[f] {
				t.report("README.md: cmd/%s flag -%s is not documented", name, f)
			}
		}
	}
}

var inlineFlagRE = regexp.MustCompile(`(^|\s)-([a-z][a-z0-9-]*)`)

// inlineFlags (rule 4) requires every flag-shaped token in the inline code
// spans (outside fenced blocks) of EXPERIMENTS.md to name a flag that at
// least one cmd/* binary defines.
func (t *tree) inlineFlags() {
	defined := map[string]bool{}
	for _, flags := range t.cmds {
		for f := range flags {
			defined[f] = true
		}
	}
	d := t.docs["EXPERIMENTS.md"]
	for lineno, l := range d.lines {
		if l.kind != prose {
			continue
		}
		for _, span := range l.code() {
			for _, m := range inlineFlagRE.FindAllStringSubmatch(span, -1) {
				if !defined[m[2]] {
					t.report("EXPERIMENTS.md:%d: no command defines a flag -%s (in %s)", lineno+1, m[2], span)
				}
			}
		}
	}
}

var docTestRE = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)

// docTests (rule 5) requires every Test…/Fuzz… identifier the documents
// name to be a test or fuzz function of some _test.go file in the
// repository.
func (t *tree) docTests() {
	for _, file := range docs {
		d := t.docs[file]
		for lineno, l := range d.lines {
			for _, name := range docTestRE.FindAllString(l.text, -1) {
				if !t.tests[name] {
					t.report("%s:%d: no _test.go file defines %s", file, lineno+1, name)
				}
			}
		}
	}
}

var ledgerEntryRE = regexp.MustCompile(`^### (3\.\d+) `)
var makeRefRE = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)

// ledger (rule 6) requires every entry of DESIGN.md's contract ledger —
// each "### 3.N" heading under the "## 3." section — to name at least one
// existing oracle test in its "**Oracles:**" paragraph and at least one
// existing Makefile target, as "`make <target>`", in its "**Make:**"
// paragraph.
func (t *tree) ledger() {
	d := t.docs["DESIGN.md"]
	type entry struct {
		section        string
		line           int
		oracles, makes int
	}
	var entries []*entry
	var cur *entry
	inLedger, field := false, ""
	for lineno, l := range d.lines {
		switch {
		case strings.HasPrefix(l.text, "## "):
			inLedger, cur = strings.HasPrefix(l.text, "## 3. "), nil
			continue
		case !inLedger:
			continue
		case strings.HasPrefix(l.text, "### "):
			cur, field = nil, ""
			if m := ledgerEntryRE.FindStringSubmatch(l.text); m != nil {
				cur = &entry{section: m[1], line: lineno + 1}
				entries = append(entries, cur)
			}
			continue
		case cur == nil:
			continue
		case strings.TrimSpace(l.text) == "":
			field = ""
		case strings.HasPrefix(l.text, "**Oracles:**"):
			field = "oracles"
		case strings.HasPrefix(l.text, "**Make:**"):
			field = "make"
		}
		switch field {
		case "oracles":
			for _, name := range docTestRE.FindAllString(l.text, -1) {
				if t.tests[name] {
					cur.oracles++
				}
			}
		case "make":
			for _, span := range inlineSpanRE.FindAllString(l.text, -1) {
				for _, m := range makeRefRE.FindAllStringSubmatch(span, -1) {
					if t.targets[m[1]] {
						cur.makes++
					}
				}
			}
		}
	}
	if len(entries) == 0 {
		t.report("DESIGN.md: no contract ledger (no \"### 3.N\" entry under \"## 3.\")")
	}
	for _, e := range entries {
		if e.oracles == 0 {
			t.report("DESIGN.md:%d: ledger entry §%s names no existing oracle test in an **Oracles:** paragraph", e.line, e.section)
		}
		if e.makes == 0 {
			t.report("DESIGN.md:%d: ledger entry §%s names no existing make target in a **Make:** paragraph", e.line, e.section)
		}
	}
}

var sectionRefRE = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
var headingRE = regexp.MustCompile(`^#{2,3} (\d+(?:\.\d+)?)\.? `)

// sectionRefs (rule 7) requires every §N or §N.M in the Go comments under
// cmd/, internal/ and examples/ and in the documents to name a numbered
// "## N." or "### N.M" heading of DESIGN.md.
func (t *tree) sectionRefs() {
	headings := map[string]bool{}
	for _, l := range t.docs["DESIGN.md"].lines {
		if m := headingRE.FindStringSubmatch(l.text); m != nil {
			headings[m[1]] = true
		}
	}
	check := func(where, text string) {
		for _, m := range sectionRefRE.FindAllStringSubmatch(text, -1) {
			if !headings[m[1]] {
				t.report("%s: §%s names no DESIGN.md heading", where, m[1])
			}
		}
	}
	for _, f := range t.files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				pos := t.fset.Position(c.Pos())
				check(fmt.Sprintf("%s:%d", pos.Filename, pos.Line), c.Text)
			}
		}
	}
	for _, file := range docs {
		d := t.docs[file]
		for lineno, l := range d.lines {
			check(fmt.Sprintf("%s:%d", file, lineno+1), l.text)
		}
	}
}

// identifiers (rule 8) requires every exported pkg.Name reference in the
// documents, where pkg is the name of a package under internal/, to name a
// top-level declaration of that package's non-test files, and every
// pkg.Type.Member reference to name a method or field declared on that
// type. A type that embeds a field, aliases another type or is defined on
// another named type takes members from elsewhere, so its member
// references are not checked. Test…/Fuzz…
// names ("fault.TestX") are rule 5's.
func (t *tree) identifiers() {
	refRE := regexp.MustCompile(`(?:^|[^\w/.])(` + strings.Join(sorted(t.pkgs), "|") + `)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	for _, file := range docs {
		d := t.docs[file]
		for lineno, l := range d.lines {
			for _, m := range refRE.FindAllStringSubmatch(l.text, -1) {
				typ := m[1] + "." + m[2]
				switch {
				case docTestRE.MatchString(m[2]):
				case !t.names[typ]:
					t.report("%s:%d: package %s declares no %s", file, lineno+1, m[1], m[2])
				case m[3] != "" && t.closed[typ] && !t.names[typ+"."+m[3]]:
					t.report("%s:%d: %s has no method or field %s", file, lineno+1, typ, m[3])
				}
			}
		}
	}
}

// makeTargets (rule 9) requires every `make <target>` quoted in an inline
// code span or a fenced code block of the documents to name a Makefile
// target. Prose ("make sure") is not code and is not read.
func (t *tree) makeTargets() {
	for _, file := range docs {
		d := t.docs[file]
		for lineno, l := range d.lines {
			for _, c := range l.code() {
				for _, m := range makeRefRE.FindAllStringSubmatch(c, -1) {
					if !t.targets[m[1]] {
						t.report("%s:%d: the Makefile has no target %s", file, lineno+1, m[1])
					}
				}
			}
		}
	}
}

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
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// docs are the markdown files rules 5 and 7–9 read.
var docs = []string{"README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "benchmark/README.md"}

func main() {
	var violations []string
	violations = append(violations, checkPackageComments("internal")...)
	violations = append(violations, checkDocCommands("README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md")...)
	violations = append(violations, checkCmdCoverage("README.md")...)
	violations = append(violations, checkInlineFlags("EXPERIMENTS.md")...)
	violations = append(violations, checkDocTests(docs...)...)
	violations = append(violations, checkLedger("DESIGN.md")...)
	violations = append(violations, checkSectionRefs("DESIGN.md", []string{"cmd", "internal", "examples"}, docs...)...)
	violations = append(violations, checkIdentifiers(docs...)...)
	violations = append(violations, checkMakeTargets(docs...)...)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "doccheck:", v)
		}
		os.Exit(1)
	}
	fmt.Println("doccheck: package comments, CLI coverage, documented invocations, cited tests, the contract ledger, section references, identifiers and make targets are clean")
}

// checkPackageComments walks every Go package directory under root and
// reports the ones whose files carry no package comment at all.
func checkPackageComments(root string) []string {
	var violations []string
	commented := map[string]bool{} // package dir -> has a package comment
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if _, seen := commented[dir]; !seen {
			commented[dir] = false
		}
		f, err := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %v", path, err)
		}
		if f.Doc != nil && strings.HasPrefix(f.Doc.Text(), "Package ") {
			commented[dir] = true
		}
		return nil
	})
	if err != nil {
		return []string{err.Error()}
	}
	dirs := make([]string, 0, len(commented))
	for dir := range commented {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if !commented[dir] {
			violations = append(violations, fmt.Sprintf("%s: no package comment (want a \"Package %s ...\" doc comment)", dir, filepath.Base(dir)))
		}
	}
	return violations
}

var runRE = regexp.MustCompile(`go run \./cmd/([a-z]+)([^\n|>]*)`)

// checkDocCommands extracts `go run ./cmd/<name> ...` invocations from the
// fenced code blocks of the given markdown files and validates the command
// directory and every -flag against the command's flag definitions.
func checkDocCommands(files ...string) []string {
	var violations []string
	flagSets := map[string]map[string]bool{} // cmd name -> defined flags
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		inFence := false
		for lineno, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if !inFence {
				continue
			}
			for _, m := range runRE.FindAllStringSubmatch(line, -1) {
				name, rest := m[1], m[2]
				flags, ok := flagSets[name]
				if !ok {
					flags, err = cmdFlags(name)
					if err != nil {
						violations = append(violations,
							fmt.Sprintf("%s:%d: %v", file, lineno+1, err))
						continue
					}
					flagSets[name] = flags
				}
				for _, tok := range strings.Fields(rest) {
					if !strings.HasPrefix(tok, "-") {
						continue
					}
					f := strings.TrimLeft(tok, "-")
					if i := strings.IndexByte(f, '='); i >= 0 {
						f = f[:i]
					}
					// Skip placeholders and negative numbers; flags are
					// lowercase identifiers.
					if f == "" || f[0] < 'a' || f[0] > 'z' {
						continue
					}
					if !flags[f] {
						violations = append(violations,
							fmt.Sprintf("%s:%d: cmd/%s defines no flag -%s", file, lineno+1, name, f))
					}
				}
			}
		}
		if inFence {
			violations = append(violations, fmt.Sprintf("%s: unterminated code fence", file))
		}
	}
	return violations
}

// checkCmdCoverage requires every cmd/* binary to be documented in readme:
// the command must be named ("cmd/<name>") and every flag it defines must
// appear somewhere in the readme as "-<flag>".
func checkCmdCoverage(readme string) []string {
	data, err := os.ReadFile(readme)
	if err != nil {
		return []string{err.Error()}
	}
	text := string(data)
	entries, err := os.ReadDir("cmd")
	if err != nil {
		return []string{err.Error()}
	}
	var violations []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		if !strings.Contains(text, "cmd/"+name) {
			violations = append(violations,
				fmt.Sprintf("%s: cmd/%s is not documented (no \"cmd/%s\" mention)", readme, name, name))
			continue
		}
		flags, err := cmdFlags(name)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		names := make([]string, 0, len(flags))
		for f := range flags {
			names = append(names, f)
		}
		sort.Strings(names)
		for _, f := range names {
			if !flagDocumented(text, f) {
				violations = append(violations,
					fmt.Sprintf("%s: cmd/%s flag -%s is not documented", readme, name, f))
			}
		}
	}
	return violations
}

// flagDocumented reports whether "-<flag>" occurs in text at a word-ish
// boundary: preceded by start-of-text, whitespace, '`' or '(' so that
// "-rank" does not satisfy a search for "-rank-by"'s prefix, and followed
// by a non-flag character so "-top" is not satisfied by "-topology".
func flagDocumented(text, flag string) bool {
	needle := "-" + flag
	for from := 0; ; {
		i := strings.Index(text[from:], needle)
		if i < 0 {
			return false
		}
		i += from
		from = i + 1
		if i > 0 {
			switch text[i-1] {
			case ' ', '\t', '\n', '`', '(':
			default:
				continue
			}
		}
		end := i + len(needle)
		if end < len(text) {
			c := text[end]
			if c == '-' || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') {
				continue
			}
		}
		return true
	}
}

var inlineSpanRE = regexp.MustCompile("`[^`\n]+`")
var inlineFlagRE = regexp.MustCompile(`(^|\s)-([a-z][a-z0-9-]*)`)

// checkInlineFlags scans the inline code spans (single-backtick, outside
// fenced blocks) of a markdown file and requires every flag-shaped token to
// name a flag that at least one cmd/* binary defines.
func checkInlineFlags(file string) []string {
	lines, err := readLines(file)
	if err != nil {
		return []string{err.Error()}
	}
	defined := map[string]bool{}
	entries, err := os.ReadDir("cmd")
	if err != nil {
		return []string{err.Error()}
	}
	var violations []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		flags, err := cmdFlags(e.Name())
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		for f := range flags {
			defined[f] = true
		}
	}
	inFence := false
	for lineno, line := range lines {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, span := range inlineSpanRE.FindAllString(line, -1) {
			for _, m := range inlineFlagRE.FindAllStringSubmatch(span, -1) {
				if !defined[m[2]] {
					violations = append(violations,
						fmt.Sprintf("%s:%d: no command defines a flag -%s (in %s)", file, lineno+1, m[2], span))
				}
			}
		}
	}
	return violations
}

var docTestRE = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z]\w*`)
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)

// checkDocTests requires every Test…/Fuzz… identifier the given markdown
// files name to be a test or fuzz function of some _test.go file in the
// repository.
func checkDocTests(files ...string) []string {
	defined, err := testNames()
	if err != nil {
		return []string{err.Error()}
	}
	var violations []string
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		for lineno, line := range lines {
			for _, name := range docTestRE.FindAllString(line, -1) {
				if !defined[name] {
					violations = append(violations,
						fmt.Sprintf("%s:%d: no _test.go file defines %s", file, lineno+1, name))
				}
			}
		}
	}
	return violations
}

// testNames collects the Test…/Fuzz… functions every _test.go file under
// the working directory defines, skipping hidden directories.
func testNames() (map[string]bool, error) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		for _, m := range testFuncRE.FindAllSubmatch(data, -1) {
			defined[string(m[1])] = true
		}
		return err
	})
	return defined, err
}

var ledgerEntryRE = regexp.MustCompile(`^### (3\.\d+) `)
var makeRefRE = regexp.MustCompile(`\bmake ([a-z][a-z0-9-]*)`)

// checkLedger requires every entry of design's contract ledger — each
// "### 3.N" heading under the "## 3." section — to name at least one
// existing oracle test in its "**Oracles:**" paragraph and at least one
// existing Makefile target, as "`make <target>`", in its "**Make:**"
// paragraph.
func checkLedger(design string) []string {
	lines, err := readLines(design)
	if err != nil {
		return []string{err.Error()}
	}
	tests, err := testNames()
	if err != nil {
		return []string{err.Error()}
	}
	targets, err := makeTargets()
	if err != nil {
		return []string{err.Error()}
	}
	type entry struct {
		section        string
		line           int
		oracles, makes int
	}
	var entries []*entry
	var cur *entry
	inLedger, field := false, ""
	for lineno, line := range lines {
		switch {
		case strings.HasPrefix(line, "## "):
			inLedger, cur = strings.HasPrefix(line, "## 3. "), nil
			continue
		case !inLedger:
			continue
		case strings.HasPrefix(line, "### "):
			cur, field = nil, ""
			if m := ledgerEntryRE.FindStringSubmatch(line); m != nil {
				cur = &entry{section: m[1], line: lineno + 1}
				entries = append(entries, cur)
			}
			continue
		case cur == nil:
			continue
		case strings.TrimSpace(line) == "":
			field = ""
		case strings.HasPrefix(line, "**Oracles:**"):
			field = "oracles"
		case strings.HasPrefix(line, "**Make:**"):
			field = "make"
		}
		switch field {
		case "oracles":
			for _, name := range docTestRE.FindAllString(line, -1) {
				if tests[name] {
					cur.oracles++
				}
			}
		case "make":
			for _, span := range inlineSpanRE.FindAllString(line, -1) {
				for _, m := range makeRefRE.FindAllStringSubmatch(span, -1) {
					if targets[m[1]] {
						cur.makes++
					}
				}
			}
		}
	}
	if len(entries) == 0 {
		return []string{fmt.Sprintf("%s: no contract ledger (no \"### 3.N\" entry under \"## 3.\")", design)}
	}
	var violations []string
	for _, e := range entries {
		if e.oracles == 0 {
			violations = append(violations,
				fmt.Sprintf("%s:%d: ledger entry §%s names no existing oracle test in an **Oracles:** paragraph", design, e.line, e.section))
		}
		if e.makes == 0 {
			violations = append(violations,
				fmt.Sprintf("%s:%d: ledger entry §%s names no existing make target in a **Make:** paragraph", design, e.line, e.section))
		}
	}
	return violations
}

var sectionRefRE = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
var headingRE = regexp.MustCompile(`^#{2,3} (\d+(?:\.\d+)?)\.? `)

// checkSectionRefs requires every §N or §N.M in the Go comments under
// goRoots and in the given markdown files to name a numbered "## N." or
// "### N.M" heading of design.
func checkSectionRefs(design string, goRoots []string, files ...string) []string {
	lines, err := readLines(design)
	if err != nil {
		return []string{err.Error()}
	}
	headings := map[string]bool{}
	for _, line := range lines {
		if m := headingRE.FindStringSubmatch(line); m != nil {
			headings[m[1]] = true
		}
	}
	var violations []string
	check := func(where, text string) {
		for _, m := range sectionRefRE.FindAllStringSubmatch(text, -1) {
			if !headings[m[1]] {
				violations = append(violations, fmt.Sprintf("%s: §%s names no %s heading", where, m[1], design))
			}
		}
	}
	fset := token.NewFileSet()
	for _, root := range goRoots {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
			if err != nil {
				return err
			}
			for _, group := range f.Comments {
				for _, c := range group.List {
					check(fmt.Sprintf("%s:%d", path, fset.Position(c.Pos()).Line), c.Text)
				}
			}
			return nil
		})
		if err != nil {
			violations = append(violations, err.Error())
		}
	}
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		for lineno, line := range lines {
			check(fmt.Sprintf("%s:%d", file, lineno+1), line)
		}
	}
	return violations
}

// checkIdentifiers requires every exported pkg.Name reference in the given
// markdown files, where pkg is the name of a package under internal/, to
// name a top-level declaration of that package's non-test files, and every
// pkg.Type.Member reference to name a method or field declared on that
// type. A type that embeds a field or aliases another type takes members
// from elsewhere, so its member references are not checked. Test…/Fuzz…
// names ("fault.TestX") are rule 5's.
func checkIdentifiers(files ...string) []string {
	decls := map[string]map[string]bool{}   // package name -> top-level names
	members := map[string]map[string]bool{} // "pkg.Type" -> its methods and fields
	borrows := map[string]bool{}            // "pkg.Type" that embeds or aliases
	member := func(typ, name string) {
		if members[typ] == nil {
			members[typ] = map[string]bool{}
		}
		if name != "" {
			members[typ][name] = true
		}
	}
	entries, err := os.ReadDir("internal")
	if err != nil {
		return []string{err.Error()}
	}
	fset := token.NewFileSet()
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkgs, err := parser.ParseDir(fset, filepath.Join("internal", e.Name()),
			func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }, 0)
		if err != nil {
			return []string{err.Error()}
		}
		for name, pkg := range pkgs {
			names := map[string]bool{}
			for _, f := range pkg.Files {
				for _, d := range f.Decls {
					switch d := d.(type) {
					case *ast.FuncDecl:
						if d.Recv == nil {
							names[d.Name.Name] = true
						} else {
							recv := d.Recv.List[0].Type
							if star, ok := recv.(*ast.StarExpr); ok {
								recv = star.X
							}
							if id, ok := recv.(*ast.Ident); ok {
								member(name+"."+id.Name, d.Name.Name)
							}
						}
					case *ast.GenDecl:
						for _, spec := range d.Specs {
							switch spec := spec.(type) {
							case *ast.TypeSpec:
								names[spec.Name.Name] = true
								typ := name + "." + spec.Name.Name
								member(typ, "")
								borrows[typ] = spec.Assign.IsValid()
								var fields []*ast.Field
								switch t := spec.Type.(type) {
								case *ast.StructType:
									fields = t.Fields.List
								case *ast.InterfaceType:
									fields = t.Methods.List
								}
								for _, f := range fields {
									borrows[typ] = borrows[typ] || len(f.Names) == 0
									for _, id := range f.Names {
										member(typ, id.Name)
									}
								}
							case *ast.ValueSpec:
								for _, id := range spec.Names {
									names[id.Name] = true
								}
							}
						}
					}
				}
			}
			decls[name] = names
		}
	}
	pkgNames := make([]string, 0, len(decls))
	for name := range decls {
		pkgNames = append(pkgNames, name)
	}
	sort.Strings(pkgNames)
	refRE := regexp.MustCompile(`(?:^|[^\w/.])(` + strings.Join(pkgNames, "|") + `)\.([A-Z]\w*)(?:\.([A-Za-z_]\w*))?`)
	var violations []string
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		for lineno, line := range lines {
			for _, m := range refRE.FindAllStringSubmatch(line, -1) {
				typ := m[1] + "." + m[2]
				switch {
				case docTestRE.MatchString(m[2]):
				case !decls[m[1]][m[2]]:
					violations = append(violations,
						fmt.Sprintf("%s:%d: package %s declares no %s", file, lineno+1, m[1], m[2]))
				case m[3] != "" && members[typ] != nil && !borrows[typ] && !members[typ][m[3]]:
					violations = append(violations,
						fmt.Sprintf("%s:%d: %s has no method or field %s", file, lineno+1, typ, m[3]))
				}
			}
		}
	}
	return violations
}

// checkMakeTargets requires every `make <target>` quoted in an inline code
// span or a fenced code block of the given markdown files to name a
// Makefile target. Prose ("make sure") is not code and is not read.
func checkMakeTargets(files ...string) []string {
	targets, err := makeTargets()
	if err != nil {
		return []string{err.Error()}
	}
	var violations []string
	for _, file := range files {
		lines, err := readLines(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		inFence := false
		for lineno, line := range lines {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			code := []string{line}
			if !inFence {
				code = inlineSpanRE.FindAllString(line, -1)
			}
			for _, c := range code {
				for _, m := range makeRefRE.FindAllStringSubmatch(c, -1) {
					if !targets[m[1]] {
						violations = append(violations,
							fmt.Sprintf("%s:%d: the Makefile has no target %s", file, lineno+1, m[1]))
					}
				}
			}
		}
	}
	return violations
}

var makeRuleRE = regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*)\s*:([^=]|$)`)

// makeTargets lists the rule targets of the Makefile in the working
// directory.
func makeTargets() (map[string]bool, error) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, err
	}
	targets := map[string]bool{}
	for _, m := range makeRuleRE.FindAllSubmatch(data, -1) {
		targets[string(m[1])] = true
	}
	return targets, nil
}

// readLines returns a file's lines.
func readLines(file string) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return strings.Split(string(data), "\n"), nil
}

// cmdFlags parses cmd/<name>'s sources and collects the names of the flags
// it defines via the flag package (flag.String, flag.Int, flag.BoolVar, ...).
func cmdFlags(name string) (map[string]bool, error) {
	dir := filepath.Join("cmd", name)
	if st, err := os.Stat(dir); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("documented command cmd/%s does not exist", name)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0)
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
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
	}
	return flags, nil
}

// Command doccheck keeps the documentation honest. It enforces five
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
//  5. Every Test…/Fuzz… identifier named in README.md, DESIGN.md,
//     ARCHITECTURE.md, EXPERIMENTS.md or benchmark/README.md is a function
//     some _test.go file defines, so a soundness paragraph cannot outlive
//     the oracle it cites.
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

func main() {
	var violations []string
	violations = append(violations, checkPackageComments("internal")...)
	violations = append(violations, checkDocCommands("README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md")...)
	violations = append(violations, checkCmdCoverage("README.md")...)
	violations = append(violations, checkInlineFlags("EXPERIMENTS.md")...)
	violations = append(violations, checkDocTests("README.md", "DESIGN.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "benchmark/README.md")...)
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "doccheck:", v)
		}
		os.Exit(1)
	}
	fmt.Println("doccheck: package comments, CLI coverage, documented invocations and cited tests are clean")
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
		data, err := os.ReadFile(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		inFence := false
		for lineno, line := range strings.Split(string(data), "\n") {
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
	data, err := os.ReadFile(file)
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
	for lineno, line := range strings.Split(string(data), "\n") {
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
	if err != nil {
		return []string{err.Error()}
	}
	var violations []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			violations = append(violations, err.Error())
			continue
		}
		for lineno, line := range strings.Split(string(data), "\n") {
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

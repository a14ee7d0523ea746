package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a small repository every rule passes on: one commented
// internal package, one command with one flag, one test, one Makefile
// target, and documents that cite each of them correctly.
func fixture() map[string]string {
	return map[string]string{
		"Makefile":                "test:\n\tgo test ./...\n",
		"internal/good/good.go":   "// Package good is a fixture.\npackage good\n\n// Exported is cited by the documents.\nfunc Exported() {}\n",
		"internal/good/a_test.go": "package good\n\nimport \"testing\"\n\nfunc TestReal(t *testing.T) {}\n",
		"cmd/tool/main.go":        "package main\n\nimport \"flag\"\n\n// See DESIGN.md §3.1.\nvar fast = flag.Bool(\"fast\", false, \"go fast\")\n\nfunc main() {}\n",
		"README.md":               "# cmd/tool\n\n```sh\ngo run ./cmd/tool -fast\n```\n\nUse `good.Exported`; run `make test` (DESIGN.md §3.1).\n",
		"EXPERIMENTS.md":          "Run `tool -fast`, see §1.\n",
		"ARCHITECTURE.md":         "Tour.\n",
		"benchmark/README.md":     "Benchmark.\n",
		"DESIGN.md":               "# Design\n\n## 1. Paper\n\n## 3. Contract ledger\n\n### 3.1 A = B\n\n**Oracles:** `TestReal`.\n\n**Make:** `make test`.\n\n## 4. Index\n",
		"examples/demo/main.go":   "package main\n\nfunc main() {}\n",
	}
}

// inTree writes files into a fresh directory and makes it the working
// directory for the rest of the test.
func inTree(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
}

// checkRule runs rule on the clean fixture, which must pass, and on the
// fixture with plant applied, which must report a violation containing
// want.
func checkRule(t *testing.T, rule func() []string, plant func(map[string]string), want string) {
	t.Helper()
	inTree(t, fixture())
	if v := rule(); len(v) > 0 {
		t.Fatalf("clean fixture: %q", v)
	}
	files := fixture()
	plant(files)
	inTree(t, files)
	v := rule()
	for _, line := range v {
		if strings.Contains(line, want) {
			return
		}
	}
	t.Fatalf("planted violation: got %q, want a line containing %q", v, want)
}

func TestCheckPackageComments(t *testing.T) {
	checkRule(t, func() []string { return checkPackageComments("internal") },
		func(f map[string]string) { f["internal/bare/bare.go"] = "package bare\n" },
		"internal/bare: no package comment")
}

func TestCheckDocCommands(t *testing.T) {
	checkRule(t, func() []string { return checkDocCommands("README.md") },
		func(f map[string]string) { f["README.md"] += "```sh\ngo run ./cmd/tool -slow\n```\n" },
		"cmd/tool defines no flag -slow")
}

func TestCheckCmdCoverage(t *testing.T) {
	checkRule(t, func() []string { return checkCmdCoverage("README.md") },
		func(f map[string]string) {
			f["cmd/tool/main.go"] = strings.Replace(f["cmd/tool/main.go"], "\nfunc main", "\nvar deep = flag.Int(\"deep\", 0, \"\")\n\nfunc main", 1)
		},
		"cmd/tool flag -deep is not documented")
}

func TestCheckInlineFlags(t *testing.T) {
	checkRule(t, func() []string { return checkInlineFlags("EXPERIMENTS.md") },
		func(f map[string]string) { f["EXPERIMENTS.md"] += "Or `tool -slow`.\n" },
		"no command defines a flag -slow")
}

func TestCheckDocTests(t *testing.T) {
	checkRule(t, func() []string { return checkDocTests("README.md") },
		func(f map[string]string) { f["README.md"] += "Pinned by TestGone.\n" },
		"no _test.go file defines TestGone")
}

func TestCheckLedger(t *testing.T) {
	rule := func() []string { return checkLedger("DESIGN.md") }
	entry := "### 3.2 C = D\n\n**Oracles:** `TestReal`.\n\n**Make:** `make test`.\n\n"
	plant := func(old, new string) func(map[string]string) {
		return func(f map[string]string) {
			f["DESIGN.md"] = strings.Replace(f["DESIGN.md"], "## 4.", strings.Replace(entry, old, new, 1)+"## 4.", 1)
		}
	}
	t.Run("last oracle gone", func(t *testing.T) {
		checkRule(t, rule, plant("`TestReal`", "`TestGone`"), "§3.2 names no existing oracle test")
	})
	t.Run("no oracles paragraph", func(t *testing.T) {
		checkRule(t, rule, plant("**Oracles:** `TestReal`.", "`TestReal` pins it."), "§3.2 names no existing oracle test")
	})
	t.Run("make target gone", func(t *testing.T) {
		checkRule(t, rule, plant("`make test`", "`make gone`"), "§3.2 names no existing make target")
	})
	t.Run("no ledger", func(t *testing.T) {
		checkRule(t, rule, func(f map[string]string) { f["DESIGN.md"] = "# Design\n\n## 3. Inventory\n" }, "no contract ledger")
	})
}

func TestCheckSectionRefs(t *testing.T) {
	rule := func() []string {
		return checkSectionRefs("DESIGN.md", []string{"cmd", "internal", "examples"}, "README.md")
	}
	t.Run("go comment", func(t *testing.T) {
		checkRule(t, rule, func(f map[string]string) {
			f["examples/demo/main.go"] = "package main\n\n// Resumes as DESIGN.md §3.2 argues.\nfunc main() {}\n"
		}, "examples/demo/main.go:3: §3.2 names no DESIGN.md heading")
	})
	t.Run("document", func(t *testing.T) {
		checkRule(t, rule, func(f map[string]string) { f["README.md"] += "See DESIGN.md §2.\n" }, "README.md:8: §2 names no DESIGN.md heading")
	})
	t.Run("string literal is not a comment", func(t *testing.T) {
		f := fixture()
		f["cmd/tool/main.go"] += "\nvar note = \"DESIGN.md §9.9\"\n"
		inTree(t, f)
		if v := rule(); len(v) != 0 {
			t.Fatalf("got %q, want no violation", v)
		}
	})
}

func TestCheckIdentifiers(t *testing.T) {
	checkRule(t, func() []string { return checkIdentifiers("README.md") },
		func(f map[string]string) {
			f["README.md"] += "Also `good.Missing`, good.TestReal and good.unexported, internal/good.go.\n"
		},
		"package good declares no Missing")
	f := fixture()
	f["README.md"] += "Cites good.TestReal, good.unexported and internal/good.go.\n"
	inTree(t, f)
	if v := checkIdentifiers("README.md"); len(v) != 0 {
		t.Fatalf("test names, unexported names and file names: got %q, want no violation", v)
	}
}

func TestCheckMakeTargets(t *testing.T) {
	rule := func() []string { return checkMakeTargets("README.md") }
	t.Run("inline span", func(t *testing.T) {
		checkRule(t, rule, func(f map[string]string) { f["README.md"] += "Run `make gone`.\n" }, "README.md:8: the Makefile has no target gone")
	})
	t.Run("fenced block", func(t *testing.T) {
		checkRule(t, rule, func(f map[string]string) { f["README.md"] += "```sh\nmake gone PR=1\n```\n" }, "README.md:9: the Makefile has no target gone")
	})
	t.Run("prose is not code", func(t *testing.T) {
		f := fixture()
		f["README.md"] += "Make sure to make gone things right.\n"
		inTree(t, f)
		if v := rule(); len(v) != 0 {
			t.Fatalf("got %q, want no violation", v)
		}
	})
}

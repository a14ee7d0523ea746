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
		"internal/good/good.go":   "// Package good is a fixture.\npackage good\n\n// Exported is cited by the documents.\nfunc Exported() {}\n\n// Box is cited with its members.\ntype Box struct{ Field int }\n\n// Method is cited.\nfunc (b *Box) Method() {}\n",
		"internal/good/a_test.go": "package good\n\nimport \"testing\"\n\nfunc TestReal(t *testing.T) {}\n",
		"cmd/tool/main.go":        "package main\n\nimport \"flag\"\n\n// See DESIGN.md §3.1.\nvar fast = flag.Bool(\"fast\", false, \"go fast\")\n\nfunc main() {}\n",
		"README.md":               "# cmd/tool\n\n```sh\ngo run ./cmd/tool -fast\n```\n\nUse `good.Exported`, `good.Box.Method` and `good.Box.Field`; run `make test` (DESIGN.md §3.1).\n",
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

// checkRule runs check, the rule list main runs, on the clean fixture,
// which must pass, and on the fixture with plant applied, which must
// report a violation containing want. Each rule's test wants a line only
// that rule prints, so dropping a rule from check fails its test.
func checkRule(t *testing.T, plant func(map[string]string), want string) {
	t.Helper()
	inTree(t, fixture())
	if v := check(); len(v) > 0 {
		t.Fatalf("clean fixture: %q", v)
	}
	files := fixture()
	plant(files)
	inTree(t, files)
	v := check()
	for _, line := range v {
		if strings.Contains(line, want) {
			return
		}
	}
	t.Fatalf("planted violation: got %q, want a line containing %q", v, want)
}

func TestCheckPackageComments(t *testing.T) {
	checkRule(t, func(f map[string]string) { f["internal/bare/bare.go"] = "package bare\n" },
		"internal/bare: no package comment")
}

func TestCheckDocCommands(t *testing.T) {
	checkRule(t, func(f map[string]string) { f["README.md"] += "```sh\ngo run ./cmd/tool -slow\n```\n" },
		"cmd/tool defines no flag -slow")
}

func TestCheckCmdCoverage(t *testing.T) {
	checkRule(t, func(f map[string]string) {
		f["cmd/tool/main.go"] = strings.Replace(f["cmd/tool/main.go"], "\nfunc main", "\nvar deep = flag.Int(\"deep\", 0, \"\")\n\nfunc main", 1)
	}, "cmd/tool flag -deep is not documented")
}

func TestCheckInlineFlags(t *testing.T) {
	checkRule(t, func(f map[string]string) { f["EXPERIMENTS.md"] += "Or `tool -slow`.\n" },
		"no command defines a flag -slow")
}

func TestCheckDocTests(t *testing.T) {
	checkRule(t, func(f map[string]string) { f["README.md"] += "Pinned by TestGone.\n" },
		"no _test.go file defines TestGone")
}

func TestCheckLedger(t *testing.T) {
	entry := "### 3.2 C = D\n\n**Oracles:** `TestReal`.\n\n**Make:** `make test`.\n\n"
	plant := func(old, new string) func(map[string]string) {
		return func(f map[string]string) {
			f["DESIGN.md"] = strings.Replace(f["DESIGN.md"], "## 4.", strings.Replace(entry, old, new, 1)+"## 4.", 1)
		}
	}
	t.Run("last oracle gone", func(t *testing.T) {
		checkRule(t, plant("`TestReal`", "`TestGone`"), "§3.2 names no existing oracle test")
	})
	t.Run("no oracles paragraph", func(t *testing.T) {
		checkRule(t, plant("**Oracles:** `TestReal`.", "`TestReal` pins it."), "§3.2 names no existing oracle test")
	})
	t.Run("make target gone", func(t *testing.T) {
		checkRule(t, plant("`make test`", "`make gone`"), "§3.2 names no existing make target")
	})
	t.Run("no ledger", func(t *testing.T) {
		checkRule(t, func(f map[string]string) { f["DESIGN.md"] = "# Design\n\n## 3. Inventory\n" }, "no contract ledger")
	})
}

func TestCheckSectionRefs(t *testing.T) {
	t.Run("go comment", func(t *testing.T) {
		checkRule(t, func(f map[string]string) {
			f["examples/demo/main.go"] = "package main\n\n// Resumes as DESIGN.md §3.2 argues.\nfunc main() {}\n"
		}, "examples/demo/main.go:3: §3.2 names no DESIGN.md heading")
	})
	t.Run("document", func(t *testing.T) {
		checkRule(t, func(f map[string]string) { f["README.md"] += "See DESIGN.md §2.\n" }, "README.md:8: §2 names no DESIGN.md heading")
	})
	t.Run("string literal is not a comment", func(t *testing.T) {
		f := fixture()
		f["cmd/tool/main.go"] += "\nvar note = \"DESIGN.md §9.9\"\n"
		inTree(t, f)
		if v := check(); len(v) != 0 {
			t.Fatalf("got %q, want no violation", v)
		}
	})
}

func TestCheckIdentifiers(t *testing.T) {
	checkRule(t, func(f map[string]string) {
		f["README.md"] += "Also `good.Missing`, good.TestReal and good.unexported, internal/good.go.\n"
	}, "package good declares no Missing")
	checkRule(t, func(f map[string]string) { f["README.md"] += "Call `good.Box.Gone`.\n" },
		"README.md:8: good.Box has no method or field Gone")
	f := fixture()
	f["README.md"] += "Cites good.TestReal, good.unexported and internal/good.go.\n"
	inTree(t, f)
	if v := check(); len(v) != 0 {
		t.Fatalf("test names, unexported names and file names: got %q, want no violation", v)
	}
	// A defined type takes its fields from the type it names.
	f = fixture()
	f["internal/journal/journal.go"] = "// Package journal is a fixture.\npackage journal\n\n// Fingerprint has the field.\ntype Fingerprint struct{ Kernel string }\n"
	f["internal/campaign/campaign.go"] = "// Package campaign is a fixture.\npackage campaign\n\nimport \"repro/internal/journal\"\n\n// Spec is defined on Fingerprint.\ntype Spec journal.Fingerprint\n"
	f["README.md"] += "Cites `campaign.Spec.Kernel`.\n"
	inTree(t, f)
	if v := check(); len(v) != 0 {
		t.Fatalf("a field of a defined type: got %q, want no violation", v)
	}
}

func TestCheckMakeTargets(t *testing.T) {
	t.Run("inline span", func(t *testing.T) {
		checkRule(t, func(f map[string]string) { f["README.md"] += "Run `make gone`.\n" }, "README.md:8: the Makefile has no target gone")
	})
	t.Run("fenced block", func(t *testing.T) {
		checkRule(t, func(f map[string]string) { f["README.md"] += "```sh\nmake gone PR=1\n```\n" }, "README.md:9: the Makefile has no target gone")
	})
	t.Run("prose is not code", func(t *testing.T) {
		f := fixture()
		f["README.md"] += "Make sure to make gone things right.\n"
		inTree(t, f)
		if v := check(); len(v) != 0 {
			t.Fatalf("got %q, want no violation", v)
		}
	})
}

// TestUnreadableTree: a tree check cannot read whole is reported, not
// checked, so no rule meets a document or a package it could not load.
func TestUnreadableTree(t *testing.T) {
	for name, plant := range map[string]func(map[string]string){
		"DESIGN.md":             func(f map[string]string) { delete(f, "DESIGN.md") },
		"internal/good/good.go": func(f map[string]string) { f["internal/good/good.go"] += "func {\n" },
	} {
		f := fixture()
		plant(f)
		inTree(t, f)
		if v := check(); len(v) != 1 || !strings.Contains(v[0], name) {
			t.Errorf("%s unreadable: got %q, want one line naming it", name, v)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestJSONStdout builds the binary and decodes its stdout as one JSON
// document for every -json action of the pruning pipeline, with and without
// -auto-loop: progress lines go to stderr. The estimate's campaign object
// describes the target its campaigns ran on — one cold golden run through
// the process cache, one snapshot per CTA of GEMM K1 — however many
// campaigns -auto-loop ran on that target first.
func TestJSONStdout(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fsprune")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(t *testing.T, v any, args ...string) {
		t.Helper()
		args = append([]string{"-kernel", "GEMM K1", "-par", "2", "-json"}, args...)
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, args...)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("fsprune %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
		}
		out := stdout.Bytes()
		dec := json.NewDecoder(bytes.NewReader(out))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("fsprune %s: stdout is not one JSON document: %v\n%s", strings.Join(args, " "), err, out)
		}
		if rest := bytes.TrimSpace(out[dec.InputOffset():]); len(rest) > 0 {
			t.Fatalf("fsprune %s: stdout continues after the document: %q", strings.Join(args, " "), rest)
		}
	}

	t.Run("plan auto-loop", func(t *testing.T) {
		var plan report.Plan
		run(t, &plan, "-action", "plan", "-auto-loop")
		if plan.Kernel != "GEMM K1" {
			t.Fatalf("plan of %q", plan.Kernel)
		}
	})
	for _, auto := range []bool{false, true} {
		name := "estimate"
		args := []string{"-action", "estimate", "-stats", "-baseline", "300"}
		if auto {
			name += " auto-loop"
			args = append(args, "-auto-loop")
		}
		t.Run(name, func(t *testing.T) {
			var est report.Estimate
			run(t, &est, args...)
			c := est.Campaign
			if c == nil || c.Runs == 0 {
				t.Fatalf("no campaign stats: %+v", c)
			}
			if c.CacheMisses != 1 || c.CacheHits != 0 || c.PreparedShared != 0 || c.Checkpoints != 4 {
				t.Fatalf("campaign object %+v: want cache_misses 1 and checkpoints 4", *c)
			}
		})
	}
}

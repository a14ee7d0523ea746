package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/journal"
	"repro/internal/report"
)

// TestJSONStdout builds the binary and decodes its stdout as one JSON
// document for -action campaign and every -json action of the pruning
// pipeline, with and without -auto-loop: progress lines go to stderr. The estimate's campaign object
// describes the target its campaigns ran on — one cold golden run through
// the process cache, one snapshot per CTA of GEMM K1 — however many
// campaigns -auto-loop ran on that target first.
func TestJSONStdout(t *testing.T) {
	bin := buildFsprune(t)
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
	// The campaign document is a merged report: the journal's header whole,
	// warp width and shard included, over the live campaign's stats.
	t.Run("campaign", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "c.journal")
		var doc report.Merged
		run(t, &doc, "-action", "campaign", "-baseline", "40", "-warp", "32", "-shard", "1/2", "-journal", path)
		fp, _, err := journal.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if doc.Fingerprint != fp || doc.Warp != 32 || doc.ShardCount != 2 {
			t.Fatalf("campaign document names %s, journal header %s", doc.Fingerprint, fp)
		}
		if c := doc.Campaign; c.Runs == 0 || c.Runs != int64(doc.Completed) || c.CacheMisses != 1 {
			t.Fatalf("campaign object %+v: want %d live runs on one cold target", c, doc.Completed)
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

// buildFsprune builds the binary into the test's temporary directory.
func buildFsprune(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fsprune")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestFlagsOutsideTheirActions: a flag set explicitly for an action that
// does not read it is a usage error (exit 2) naming the flag, never a
// silent no-op; on the actions that read them the same flags run.
func TestFlagsOutsideTheirActions(t *testing.T) {
	bin := buildFsprune(t)
	// Each flag that only some actions read, with a value and its readers.
	readers := []struct {
		flag    []string
		actions []string
	}{
		{[]string{"-baseline", "7"}, []string{"estimate", "baseline", "campaign"}},
		{[]string{"-seed", "9"}, []string{"plan", "estimate", "baseline", "campaign"}},
		{[]string{"-par", "3"}, []string{"plan", "estimate", "baseline", "campaign"}},
		{[]string{"-journal", filepath.Join(t.TempDir(), "x.journal")}, []string{"campaign"}},
		{[]string{"-shard", "0/2"}, []string{"campaign"}},
		{[]string{"-loop-iters", "3"}, []string{"plan", "estimate"}},
		{[]string{"-auto-loop"}, []string{"plan", "estimate"}},
		{[]string{"-bit-samples", "8"}, []string{"plan", "estimate"}},
		{[]string{"-dead"}, []string{"plan", "estimate"}},
		{[]string{"-margin", "0.5"}, []string{"baseline"}},
		{[]string{"-json"}, []string{"profile", "plan", "estimate", "campaign"}},
		{[]string{"-stats"}, []string{"estimate", "baseline", "campaign"}},
	}
	run := func(args ...string) (int, string) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-kernel", "GEMM K1"}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			return exit.ExitCode(), stderr.String()
		}
		if err != nil {
			t.Fatalf("fsprune %s: %v", strings.Join(args, " "), err)
		}
		return 0, stderr.String()
	}
	actions := []string{"profile", "sites", "plan", "estimate", "baseline", "campaign"}
	for _, r := range readers {
		for _, a := range actions {
			reads := false
			for _, b := range r.actions {
				reads = reads || a == b
			}
			if reads {
				continue
			}
			args := append([]string{"-action", a}, r.flag...)
			code, stderr := run(args...)
			if code != 2 || !strings.Contains(stderr, r.flag[0]) {
				t.Errorf("fsprune %s: exit %d, stderr %q; want exit 2 naming %s",
					strings.Join(args, " "), code, stderr, r.flag[0])
			}
		}
	}
	// The readers take the same flags; -bit-samples is read only by the
	// pruning pipeline, so it is rejected beside a non-default -model too.
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"-action", "profile", "-json"}, 0},
		{[]string{"-action", "plan", "-seed", "9", "-loop-iters", "3", "-bit-samples", "8", "-dead", "-json"}, 0},
		{[]string{"-action", "baseline", "-par", "2", "-seed", "9", "-baseline", "250", "-margin", "0.5", "-stats"}, 0},
		{[]string{"-action", "campaign", "-par", "2", "-baseline", "40", "-shard", "1/2", "-stats", "-json",
			"-journal", filepath.Join(t.TempDir(), "c.journal")}, 0},
		{[]string{"-action", "campaign", "-model", "stuck-pred", "-bit-samples", "8"}, 2},
		{[]string{"-action", "plan", "-auto-loop", "-loop-iters", "3"}, 2},
		// -par on a plan sizes only -auto-loop's campaigns.
		{[]string{"-action", "plan", "-par", "3"}, 2},
		{[]string{"-action", "plan", "-par", "2", "-auto-loop", "-json"}, 0},
	} {
		if code, stderr := run(c.args...); code != c.code {
			t.Errorf("fsprune %s: exit %d, want %d\n%s", strings.Join(c.args, " "), code, c.code, stderr)
		}
	}
}

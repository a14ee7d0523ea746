package main

import (
	"bytes"
	"encoding/json"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/report"
)

// TestJSONStdout builds the binary and decodes its stdout under -json - as
// one merged report, for a single journal and for two shard journals: the
// summary lines go to stderr.
func TestJSONStdout(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fsmerge")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	record := func(name string, s campaign.Spec) string {
		t.Helper()
		path := filepath.Join(dir, name)
		p, err := s.Prepare(nil)
		if err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(path, s.Fingerprint())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(fault.CampaignOptions{Parallelism: 1, Journal: j}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	s := campaign.Spec{Kernel: "2DCONV K1", Scale: "small", Seed: 1, Sites: 60, Model: "dest-value"}
	whole := record("whole.journal", s)
	s.ShardCount = 2
	s0 := record("s0.journal", s)
	s.ShardIndex = 1
	s1 := record("s1.journal", s)

	for _, c := range []struct {
		name     string
		journals []string
		shards   int
	}{{"single journal", []string{whole}, 1}, {"two shards", []string{s0, s1}, 2}} {
		t.Run(c.name, func(t *testing.T) {
			args := append([]string{"-json", "-"}, c.journals...)
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(bin, args...)
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("fsmerge %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
			}
			out := stdout.Bytes()
			dec := json.NewDecoder(bytes.NewReader(out))
			dec.DisallowUnknownFields()
			var doc report.Merged
			if err := dec.Decode(&doc); err != nil {
				t.Fatalf("stdout is not one JSON document: %v\n%s", err, out)
			}
			if rest := bytes.TrimSpace(out[dec.InputOffset():]); len(rest) > 0 {
				t.Fatalf("stdout continues after the document: %q", rest)
			}
			if doc.Kernel != s.Kernel || doc.ShardCount != c.shards || doc.Completed != s.Sites {
				t.Fatalf("merged %#v: want %s, %d shards, %d sites completed", doc, s.Kernel, c.shards, s.Sites)
			}
			if !strings.Contains(stderr.String(), "profile: ") {
				t.Fatalf("no summary on stderr: %q", stderr.String())
			}
		})
	}
}

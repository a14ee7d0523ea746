package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
// one merged report, for a single journal, for two shard journals and for
// one shard of two alone (-allow-partial), which keeps its shard index: the
// summary lines go to stderr. A partial merge of two shards of three has
// no document (exit 2), and its summary names the shards it holds.
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
		name                    string
		journals                []string
		shards, index, complete int
	}{
		{"single journal", []string{whole}, 1, 0, s.Sites},
		{"two shards", []string{s0, s1}, 2, 0, s.Sites},
		{"shard 1 alone", []string{"-allow-partial", s1}, 2, 1, s.Sites / 2},
	} {
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
			if doc.Kernel != s.Kernel || doc.ShardCount != c.shards || doc.ShardIndex != c.index || doc.Completed != c.complete {
				t.Fatalf("merged %#v: want %s, shard %d/%d, %d sites completed", doc, s.Kernel, c.index, c.shards, c.complete)
			}
			if want := fmt.Sprintf(`"shard_index": %d`, c.index); !bytes.Contains(out, []byte(want)) {
				t.Fatalf("stdout lacks %s:\n%s", want, out)
			}
			if !strings.Contains(stderr.String(), "profile: ") {
				t.Fatalf("no summary on stderr: %q", stderr.String())
			}
		})
	}

	s.ShardCount = 3
	var thirds []string
	for s.ShardIndex = 0; s.ShardIndex < 3; s.ShardIndex++ {
		thirds = append(thirds, record(fmt.Sprintf("t%d.journal", s.ShardIndex), s))
	}
	t.Run("two shards of three", func(t *testing.T) {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-allow-partial", "-json", "-", thirds[0], thirds[2])
		cmd.Stderr = &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), "shards 0,2 of 3") {
			t.Fatalf("-json over shards 0 and 2 of 3: %v, stderr %q; want exit 2 naming shards 0,2 of 3", err, stderr.String())
		}
		out, err := exec.Command(bin, "-allow-partial", thirds[0], thirds[2]).CombinedOutput()
		if err != nil || !strings.Contains(string(out), "shards=0,2/3: merged 2 shard journals") {
			t.Fatalf("summary over shards 0 and 2 of 3: %v\n%s", err, out)
		}
	})
}

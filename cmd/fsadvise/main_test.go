package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/journal"
)

// TestJournalRejectsLiveFlags builds the binary: with -journal, a flag
// that sizes or seeds a live campaign names a campaign the journal is not,
// so it is a usage error (exit 2) naming the flag, never a silent no-op;
// without those flags the journal is advised.
func TestJournalRejectsLiveFlags(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	s := campaign.Spec{Kernel: "GEMM K1", Scale: "small", Seed: 1, Sites: 40, Model: "dest-value"}
	path := filepath.Join(dir, "c.journal")
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

	advise := func(args ...string) (int, string) {
		return run(t, bin, append([]string{"-journal", path, "-json"}, args...)...)
	}
	if code, stderr := advise(); code != 0 {
		t.Fatalf("fsadvise -journal: exit %d\n%s", code, stderr)
	}
	for _, args := range [][]string{
		{"-scale", "paper"},
		{"-seed", "9"},
		{"-sites", "5"},
		{"-model", "mem-addr"},
		{"-warp", "32"},
		{"-par", "3"},
	} {
		if code, stderr := advise(args...); code != 2 || !strings.Contains(stderr, args[0]) {
			t.Errorf("fsadvise -journal %s: exit %d, stderr %q; want exit 2 naming %s",
				strings.Join(args, " "), code, stderr, args[0])
		}
	}
}

// TestBadAdviceOptions builds the binary: a bad advice option is a usage
// error (exit 2) naming the flag, reported before anything is read,
// prepared or run, on both doors. The journal door is given a journal
// that does not exist, so only a check that comes first can name the flag.
func TestBadAdviceOptions(t *testing.T) {
	dir := t.TempDir()
	bin := build(t, dir)
	for _, door := range [][]string{
		{"-journal", filepath.Join(dir, "absent.journal")},
		{"-kernel", "GEMM K1", "-sites", "40"},
	} {
		for _, args := range [][]string{
			{"-rank-by", "worst"},
			{"-confidence", "1"},
			{"-budget", "-5"},
			{"-top", "-1"},
			{"-width", "-1"},
		} {
			all := append(append([]string{}, door...), args...)
			if code, stderr := run(t, bin, all...); code != 2 || !strings.Contains(stderr, strings.TrimPrefix(args[0], "-")) {
				t.Errorf("fsadvise %s: exit %d, stderr %q; want exit 2 naming %s",
					strings.Join(all, " "), code, stderr, args[0])
			}
		}
	}
}

// build compiles the command into dir.
func build(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "fsadvise")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// run runs the binary and returns its exit code and stderr.
func run(t *testing.T, bin string, args ...string) (int, string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatalf("fsadvise %s: %v", strings.Join(args, " "), err)
	}
	return 0, stderr.String()
}

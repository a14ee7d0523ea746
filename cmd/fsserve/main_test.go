package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/kernels"
	"repro/internal/report"
	"repro/internal/stats"
)

// daemon wraps one fsserve process under test.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startDaemon launches the built binary on a random port and scrapes the
// bound address from its first stdout line.
func startDaemon(t *testing.T, bin, data string) *daemon {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-data", data,
		"-workers", "1", "-par", "2", "-sync-every", "1")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Belt-and-braces: never leak a daemon past the test, even on Fatal
	// before the explicit sigterm. Kill after Wait is a harmless error.
	t.Cleanup(func() { _ = cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		_ = cmd.Process.Kill()
		t.Fatalf("fsserve produced no output (scan err %v)", sc.Err())
	}
	line := sc.Text()
	// "fsserve listening on 127.0.0.1:PORT (data DIR)"
	fields := strings.Fields(line)
	if len(fields) < 4 || fields[0] != "fsserve" {
		_ = cmd.Process.Kill()
		t.Fatalf("unexpected banner %q", line)
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		for sc.Scan() {
		}
	}()
	return &daemon{cmd: cmd, base: "http://" + fields[3]}
}

// sigterm delivers SIGTERM and asserts a clean exit 0 — the graceful,
// journal-flushing shutdown path.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("fsserve did not exit cleanly on SIGTERM: %v", err)
		}
	case <-time.After(time.Minute):
		_ = d.cmd.Process.Kill()
		t.Fatal("fsserve did not exit within a minute of SIGTERM")
	}
}

func (d *daemon) get(t *testing.T, path string, out any) int {
	t.Helper()
	resp, err := http.Get(d.base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// smokeSites sizes TestServeSmoke's campaign: long enough that it is still
// running one status poll after its third outcome, so the SIGTERM lands
// mid-campaign (a GEMM K1 site takes tens of microseconds).
const smokeSites = 2000

// TestServeSmoke is the CI end-to-end exercise of the daemon binary:
// build, serve on a random port, submit, interrupt mid-campaign with
// SIGTERM (clean exit 0), restart over the same data dir, resume to
// completion, and compare the final report byte-for-byte with the
// journal-derived reference an fsprune campaign run would yield.
func TestServeSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "fsserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	data := t.TempDir()

	d := startDaemon(t, bin, data)
	body := fmt.Sprintf(`{"kernel": "GEMM K1", "sites": %d, "seed": 5}`, smokeSites)
	resp, err := http.Post(d.base+"/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit: HTTP %d, id %q", resp.StatusCode, sub.ID)
	}

	// Wait for some progress, then SIGTERM mid-campaign: the shutdown must
	// be resume-capable — exit 0 with every completed outcome journaled.
	var status struct {
		State     string `json:"state"`
		Completed int    `json:"completed"`
	}
	deadline := time.Now().Add(2 * time.Minute)
	for status.Completed < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("campaign made no progress (state %q)", status.State)
		}
		time.Sleep(20 * time.Millisecond)
		d.get(t, sub.URL, &status)
	}
	d.sigterm(t)

	// The journal survived with a valid header and the completed prefix.
	jpath := filepath.Join(data, sub.ID+".journal")
	_, recs, err := journal.ReadFile(jpath)
	if err != nil {
		t.Fatalf("journal unreadable after SIGTERM: %v", err)
	}
	if len(recs) < 3 || len(recs) >= smokeSites {
		t.Fatalf("journal holds %d records after mid-campaign SIGTERM, want partial >= 3", len(recs))
	}

	// Restart over the same data dir: the campaign resumes and finishes.
	d = startDaemon(t, bin, data)
	deadline = time.Now().Add(2 * time.Minute)
	for status.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("resumed campaign stuck in %q (%d completed)", status.State, status.Completed)
		}
		time.Sleep(20 * time.Millisecond)
		d.get(t, sub.URL, &status)
		if status.State == "failed" || status.State == "interrupted" {
			t.Fatalf("resumed campaign ended %q", status.State)
		}
	}

	httpResp, err := http.Get(d.base + sub.URL + "/report")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := got.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("report: HTTP %d: %s", httpResp.StatusCode, got.String())
	}
	if want := referenceReport(t, t.TempDir()); !bytes.Equal(got.Bytes(), want) {
		t.Errorf("daemon report differs from fsprune-equivalent reference:\ngot:  %s\nwant: %s", got.Bytes(), want)
	}

	var st struct {
		EngineRuns int64 `json:"engine_runs"`
	}
	if code := d.get(t, "/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats: HTTP %d", code)
	}
	if st.EngineRuns != 1 {
		t.Errorf("second incarnation ran the engine %d times, want 1 (the resume)", st.EngineRuns)
	}
	d.sigterm(t)
}

// referenceReport runs the same campaign standalone — fsprune's campaign
// recipe with a journal — and renders the journal-derived report document.
func referenceReport(t *testing.T, dir string) []byte {
	t.Helper()
	spec, ok := kernels.ByName("GEMM K1")
	if !ok {
		t.Fatal("GEMM K1 not registered")
	}
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	space := fault.NewSpace(inst.Target.Profile())
	rng := stats.NewRNG(5).Split("baseline")
	sites := fault.Uniform(space.Random(rng, smokeSites))
	shard := fault.Shard{Index: 0, Count: 1}
	fp := inst.Target.JournalFingerprint(fault.ModelDestValue, len(sites), kernels.ScaleSmall.String(), 5, shard)
	j, err := journal.Open(filepath.Join(dir, "ref.journal"), fp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fault.Run(inst.Target, sites, fault.CampaignOptions{Journal: j}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := journal.ReadFile(filepath.Join(dir, "ref.journal"))
	if err != nil {
		t.Fatal(err)
	}
	doc, err := report.NewMerged(fp, recs)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

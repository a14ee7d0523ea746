package journal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testFP() Fingerprint {
	return Fingerprint{
		Kernel: "GEMM K1", Scale: "small", Seed: 7, Model: "dest-value",
		Warp: 0, Sites: 8, ShardIndex: 0, ShardCount: 1,
	}
}

func rec(i int) Record {
	return Record{
		Index: i, Thread: i * 3, DynInst: int64(i * 11), Bit: i % 32,
		Outcome: uint8(i % 4), Weight: 1.5, CTAsSkipped: int64(i), EarlyExit: i%2 == 0,
		Attempts: 1,
	}
}

// TestRoundTrip: records appended in one session replay verbatim in the
// next, and counts line up.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if j.Count() != 5 {
		t.Fatalf("count = %d, want 5", j.Count())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	got := j2.Replayed()
	if len(got) != 5 {
		t.Fatalf("replayed %d records, want 5", len(got))
	}
	for i, r := range got {
		if r != rec(i) {
			t.Fatalf("record %d = %+v, want %+v", i, r, rec(i))
		}
	}
	if j2.Count() != 5 {
		t.Fatalf("count after replay = %d, want 5", j2.Count())
	}
}

// TestAppendAfterReopen: a resumed journal keeps accepting records and the
// third session sees both generations.
func TestAppendAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	_, recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0] != rec(0) || recs[1] != rec(1) {
		t.Fatalf("records after two sessions: %+v", recs)
	}
}

// TestFingerprintMismatch: every fingerprint field participates in
// staleness detection.
func TestFingerprintMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	mutants := []func(*Fingerprint){
		func(f *Fingerprint) { f.Kernel = "MVT K1" },
		func(f *Fingerprint) { f.Scale = "paper" },
		func(f *Fingerprint) { f.Seed = 8 },
		func(f *Fingerprint) { f.Model = "mem-addr" },
		func(f *Fingerprint) { f.Warp = 32 },
		func(f *Fingerprint) { f.Sites = 9 },
		func(f *Fingerprint) { f.ShardIndex = 1; f.ShardCount = 2 },
	}
	for i, mutate := range mutants {
		fp := testFP()
		mutate(&fp)
		if _, err := Open(path, fp); !errors.Is(err, ErrFingerprintMismatch) {
			t.Fatalf("mutant %d: err = %v, want ErrFingerprintMismatch", i, err)
		}
	}
}

// TestOpenIgnoresRetiredHeaderKeys: checkpoint strides and the full-run
// switch were fingerprint fields once. A header that still carries them
// opens under the fingerprint without them — they never decided an outcome —
// replays its records and accepts appends.
func TestOpenIgnoresRetiredHeaderKeys(t *testing.T) {
	for _, keys := range []string{
		`"stride":2,"intra_stride":7,`,
		`"stride":3,"intra_stride":-1,`,
		`"full_run":true,`,
	} {
		path := filepath.Join(t.TempDir(), "old.journal")
		header := `{"kernel":"GEMM K1","scale":"small","seed":7,"model":"dest-value",` + keys +
			`"sites":8,"shard_index":0,"shard_count":1}`
		data := append(frame([]byte(header)), frame([]byte(`{"i":3,"t":9,"d":33,"b":3,"o":3,"w":1.5,"cs":3,"a":1}`))...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path, testFP())
		if err != nil {
			t.Fatalf("header with %s: %v", keys, err)
		}
		if got := j.Replayed(); len(got) != 1 || got[0] != rec(3) {
			t.Fatalf("header with %s: replayed %+v", keys, got)
		}
		if err := j.Append(rec(4)); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		fp, recs, err := Merge([]string{path}, true)
		if err != nil || fp != testFP() || len(recs) != 2 {
			t.Fatalf("header with %s: merge fp %s, %d records, err %v", keys, fp, len(recs), err)
		}
	}
}

// TestTornTailTruncated: bytes of a partially written frame (crash
// mid-append) are dropped on open; complete records survive; the journal
// accepts appends after recovery.
func TestTornTailTruncated(t *testing.T) {
	for _, tear := range []struct {
		name string
		grow func([]byte) []byte
	}{
		{"partial header", func(b []byte) []byte { return append(b, 0x55, 0x66, 0x77) }},
		{"length beyond EOF", func(b []byte) []byte {
			return append(b, 0xff, 0x00, 0x00, 0x00, 1, 2, 3, 4, 'x', 'y')
		}},
		{"crc mismatch", func(b []byte) []byte {
			f := frame([]byte(`{"i":9}`))
			f[4] ^= 0xff // corrupt the checksum
			return append(b, f...)
		}},
		{"oversized length", func(b []byte) []byte {
			return append(b, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0)
		}},
	} {
		t.Run(tear.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.journal")
			j, err := Open(path, testFP())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.Append(rec(i)); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tear.grow(data), 0o644); err != nil {
				t.Fatal(err)
			}

			j2, err := Open(path, testFP())
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			if got := len(j2.Replayed()); got != 3 {
				t.Fatalf("replayed %d records, want 3", got)
			}
			if err := j2.Append(rec(3)); err != nil {
				t.Fatal(err)
			}
			j2.Close()

			_, recs, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != 4 || recs[3] != rec(3) {
				t.Fatalf("after recovery+append: %+v", recs)
			}
		})
	}
}

// TestTornHeaderIsCorrupt: a file whose fingerprint header itself is torn
// cannot be trusted at all.
func TestTornHeaderIsCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	if err := os.WriteFile(path, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, testFP()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestConcurrentAppend: workers append concurrently; every record survives
// intact (run under -race).
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	fp := testFP()
	fp.Sites = 256
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 32; i++ {
				if err := j.Append(rec(w*32 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	j.Close()

	_, recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 256 {
		t.Fatalf("%d records, want 256", len(recs))
	}
	seen := map[int]bool{}
	for _, r := range recs {
		if seen[r.Index] {
			t.Fatalf("duplicate index %d", r.Index)
		}
		seen[r.Index] = true
		if r != rec(r.Index) {
			t.Fatalf("record %d mangled: %+v", r.Index, r)
		}
	}
}

// shardJournal writes one shard's journal covering the indices owned by
// shard idx of count in a sites-sized campaign.
func shardJournal(t *testing.T, dir string, idx, count, sites int) string {
	t.Helper()
	fp := testFP()
	fp.Sites = sites
	fp.ShardIndex, fp.ShardCount = idx, count
	path := filepath.Join(dir, fmt.Sprintf("shard%d.journal", idx))
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := idx; i < sites; i += count {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	return path
}

// TestMerge: shard journals merge into index-sorted records covering the
// whole campaign, whichever order the files are passed in.
func TestMerge(t *testing.T) {
	dir := t.TempDir()
	const sites, shards = 20, 3
	var paths []string
	for s := 0; s < shards; s++ {
		paths = append(paths, shardJournal(t, dir, s, shards, sites))
	}
	for _, order := range [][]string{
		{paths[0], paths[1], paths[2]},
		{paths[2], paths[0], paths[1]},
	} {
		fp, recs, err := Merge(order, false)
		if err != nil {
			t.Fatal(err)
		}
		if fp.Sites != sites || fp.ShardCount != shards || fp.ShardIndex != 0 {
			t.Fatalf("merged fingerprint: %+v", fp)
		}
		if len(recs) != sites {
			t.Fatalf("%d records, want %d", len(recs), sites)
		}
		for i, r := range recs {
			if r.Index != i {
				t.Fatalf("record %d has index %d (not sorted)", i, r.Index)
			}
			if r != rec(i) {
				t.Fatalf("record %d = %+v, want %+v", i, r, rec(i))
			}
		}
	}
}

// TestMergeValidation: mismatched campaigns, duplicated shards or site
// indices, and incomplete coverage are rejected.
func TestMergeValidation(t *testing.T) {
	dir := t.TempDir()
	const sites, shards = 20, 3
	var paths []string
	for s := 0; s < shards; s++ {
		paths = append(paths, shardJournal(t, dir, s, shards, sites))
	}

	// Foreign campaign.
	other := filepath.Join(dir, "other.journal")
	fp := testFP()
	fp.Kernel = "MVT K1"
	fp.Sites = sites
	fp.ShardIndex, fp.ShardCount = 1, shards
	oj, err := Open(other, fp)
	if err != nil {
		t.Fatal(err)
	}
	oj.Close()
	if _, _, err := Merge([]string{paths[0], other}, true); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("foreign campaign: err = %v", err)
	}

	// Duplicate shard.
	if _, _, err := Merge([]string{paths[0], paths[0]}, true); err == nil {
		t.Fatal("duplicate shard accepted")
	}

	// Missing shard: strict merge fails, partial merge succeeds.
	if _, _, err := Merge([]string{paths[0], paths[2]}, false); err == nil {
		t.Fatal("incomplete merge accepted")
	}
	if _, recs, err := Merge([]string{paths[0], paths[2]}, true); err != nil || len(recs) >= sites {
		t.Fatalf("partial merge: %d records, err %v", len(recs), err)
	}

	// Overlapping site indices across shard files.
	overlap := filepath.Join(dir, "overlap.journal")
	fp = testFP()
	fp.Sites = sites
	fp.ShardIndex, fp.ShardCount = 1, shards
	ovj, err := Open(overlap, fp)
	if err != nil {
		t.Fatal(err)
	}
	if err := ovj.Append(rec(0)); err != nil { // index 0 belongs to shard 0
		t.Fatal(err)
	}
	ovj.Close()
	if _, _, err := Merge([]string{paths[0], overlap}, true); err == nil {
		t.Fatal("overlapping site indices accepted")
	}
}

// TestMergeModelMismatch: shards recorded under different fault models are
// not fragments of one campaign; the error must name both models and both
// files so the operator can see which shard came from which run.
func TestMergeModelMismatch(t *testing.T) {
	dir := t.TempDir()
	const sites, shards = 20, 2
	base := shardJournal(t, dir, 0, shards, sites)

	other := filepath.Join(dir, "stuck.journal")
	fp := testFP()
	fp.Model = "stuck-pred"
	fp.Sites = sites
	fp.ShardIndex, fp.ShardCount = 1, shards
	oj, err := Open(other, fp)
	if err != nil {
		t.Fatal(err)
	}
	oj.Close()

	_, _, err = Merge([]string{base, other}, true)
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v", err)
	}
	for _, want := range []string{"dest-value", "stuck-pred", "must share a model", base, other} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("merge error %q missing %q", err, want)
		}
	}
}

// TestFingerprintDiff: Diff names exactly the differing fields with
// expected-vs-got values, and is empty for equal fingerprints.
func TestFingerprintDiff(t *testing.T) {
	a := testFP()
	if d := a.Diff(a); d != "" {
		t.Fatalf("equal fingerprints diff = %q", d)
	}
	b := a
	b.Seed = 99
	b.Model = "mem-addr"
	d := a.Diff(b)
	if want := "seed: want 7, got 99"; !strings.Contains(d, want) {
		t.Fatalf("diff %q missing %q", d, want)
	}
	if want := "model: want dest-value, got mem-addr"; !strings.Contains(d, want) {
		t.Fatalf("diff %q missing %q", d, want)
	}
	if strings.Contains(d, "kernel") || strings.Contains(d, "sites") {
		t.Fatalf("diff %q names fields that match", d)
	}
}

// TestMismatchErrorsNameFields: the Open and Merge fingerprint-mismatch
// errors spell out the offending fields, not just "mismatch".
func TestMismatchErrorsNameFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.journal")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	j.Close()

	fp := testFP()
	fp.Warp = 4
	_, err = Open(path, fp)
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("err = %v", err)
	}
	if want := "warp: want 4, got 0"; !strings.Contains(err.Error(), want) {
		t.Fatalf("open error %q missing %q", err, want)
	}

	other := filepath.Join(dir, "other.journal")
	ofp := testFP()
	ofp.Kernel = "MVT K1"
	oj, err := Open(other, ofp)
	if err != nil {
		t.Fatal(err)
	}
	oj.Close()
	_, _, err = Merge([]string{path, other}, true)
	if !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("merge err = %v", err)
	}
	if want := "kernel: want GEMM K1, got MVT K1"; !strings.Contains(err.Error(), want) {
		t.Fatalf("merge error %q missing %q", err, want)
	}
}

// TestRepeatedTornTailRecovery: the crash-recover-crash sequence the
// truncate fsync exists for. Each generation appends records, tears the
// tail (as a kill -9 mid-write would), and reopens; every surviving record
// of every generation must decode, and the file must end exactly at the
// last whole frame — no bytes of any torn tail may outlive its truncation.
func TestRepeatedTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	next := 0
	for gen := 0; gen < 3; gen++ {
		j, err := Open(path, testFP())
		if err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if got := len(j.Replayed()); got != next {
			t.Fatalf("gen %d: replayed %d records, want %d", gen, got, next)
		}
		for i := 0; i < 2; i++ {
			if err := j.Append(rec(next)); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Tear: a partial frame header plus garbage payload bytes.
		torn := append(data, 0x21, 0x00, 0x00, 0x00, 0xde, 0xad)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got := j.Replayed()
	if len(got) != next {
		t.Fatalf("replayed %d records after 3 torn generations, want %d", len(got), next)
	}
	for i, r := range got {
		if r != rec(i) {
			t.Fatalf("record %d = %+v, want %+v", i, r, rec(i))
		}
	}
	// The recovered file must be exactly the valid frames: scan consumes
	// everything.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, goodEnd := scan(data); goodEnd != len(data) {
		t.Fatalf("file holds %d bytes past the last whole frame after recovery", len(data)-goodEnd)
	}
}

// TestAutoSyncDurable: with AutoSync every append batch is flushed without
// Close — the records must be fully framed on disk mid-session, and the
// cadence must not disturb what a reader decodes.
func TestAutoSyncDurable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.AutoSync(2)
	for i := 0; i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Without closing: every appended record is a whole frame on disk.
	_, recs, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("mid-session read: %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r != rec(i) {
			t.Fatalf("record %d = %+v, want %+v", i, r, rec(i))
		}
	}
}

// TestSnapshotLiveRead: KeepRecords + Snapshot serve a live reader a
// consistent prefix while writers append concurrently, and the final
// snapshot equals replayed followed by appended records.
func TestSnapshotLiveRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j, err = Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.KeepRecords()

	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // concurrent reader: snapshots only ever grow
		defer close(stop)
		last := 0
		for i := 0; i < 200; i++ {
			s := j.Snapshot()
			if len(s) < last {
				t.Errorf("snapshot shrank: %d -> %d", last, len(s))
				return
			}
			if len(s) > 0 && s[0] != rec(0) {
				t.Errorf("snapshot lost the replayed record: %+v", s[0])
				return
			}
			last = len(s)
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := j.Append(rec(1 + w*perWriter + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	<-stop

	s := j.Snapshot()
	if len(s) != 1+writers*perWriter {
		t.Fatalf("final snapshot has %d records, want %d", len(s), 1+writers*perWriter)
	}
	if s[0] != rec(0) {
		t.Fatalf("snapshot[0] = %+v, want the replayed record", s[0])
	}
	seen := map[int]bool{}
	for _, r := range s[1:] {
		if seen[r.Index] {
			t.Fatalf("snapshot holds record %d twice", r.Index)
		}
		seen[r.Index] = true
	}
}

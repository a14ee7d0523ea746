package journal

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJournal writes a journal holding recs in the given on-disk order.
// Append does not validate, so it can write any record the decoder must
// reject.
func writeJournal(t testing.TB, path string, fp Fingerprint, recs ...Record) {
	t.Helper()
	j, err := Open(path, fp)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// decodeCase is one invalid record and the error text the decoder must
// give for it.
type decodeCase struct {
	name string
	bad  Record
	want string
}

// badRec is rec(2) changed by mut.
func badRec(mut func(*Record)) Record {
	r := rec(2)
	mut(&r)
	return r
}

// checkDecodeRejects writes each case's invalid record as the third of four
// and checks that both readers — Open's replay and ReadFile (and through it
// Merge) — fail with ErrCorrupt naming the record. The decoder is the one
// gate for record validity.
func checkDecodeRejects(t *testing.T, cases []decodeCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.journal")
			writeJournal(t, path, testFP(), rec(0), rec(1), tc.bad, rec(3))
			_, err := Open(path, testFP())
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Open: err = %v, want ErrCorrupt with %q", err, tc.want)
			}
			_, _, err = ReadFile(path)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ReadFile: err = %v, want ErrCorrupt with %q", err, tc.want)
			}
			if _, _, err := Merge([]string{path}, true); !errors.Is(err, ErrCorrupt) {
				t.Errorf("Merge: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestDecodeRejectsOutOfRange: a site index outside [0, Sites) or a
// negative site key is corrupt.
func TestDecodeRejectsOutOfRange(t *testing.T) {
	checkDecodeRejects(t, []decodeCase{
		{"index below zero", badRec(func(r *Record) { r.Index = -1 }), "record 2: site index -1 out of range [0,8)"},
		{"index at Sites", badRec(func(r *Record) { r.Index = 8 }), "record 2: site index 8 out of range [0,8)"},
		{"negative thread", badRec(func(r *Record) { r.Thread = -1 }), "record 2: site 2 carries a negative key"},
		{"negative dyn", badRec(func(r *Record) { r.DynInst = -1 }), "record 2: site 2 carries a negative key"},
		{"negative bit", badRec(func(r *Record) { r.Bit = -1 }), "record 2: site 2 carries a negative key"},
	})
}

// TestDecodeRejectsDuplicates: a record repeating an earlier record's site
// index is corrupt.
func TestDecodeRejectsDuplicates(t *testing.T) {
	checkDecodeRejects(t, []decodeCase{
		{"repeated index", rec(1), "record 2: site 1 recorded twice"},
	})
}

// TestReadFileIndexOrder: ReadFile returns records in site-index order,
// whatever order they completed in; Open's Replayed keeps on-disk order.
func TestReadFileIndexOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.journal")
	order := []int{5, 0, 7, 2, 1}
	var recs []Record
	for _, i := range order {
		recs = append(recs, rec(i))
	}
	writeJournal(t, path, testFP(), recs...)

	_, got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 2, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("ReadFile returned %d records, want %d", len(got), len(want))
	}
	for k, r := range got {
		if r != rec(want[k]) {
			t.Fatalf("ReadFile position %d = %+v, want %+v", k, r, rec(want[k]))
		}
	}

	j, err := Open(path, testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for k, r := range j.Replayed() {
		if r.Index != order[k] {
			t.Fatalf("Replayed position %d holds index %d, want on-disk order %v", k, r.Index, order)
		}
	}
}

// fuzzSeeds are checked-in starting points for FuzzReadFile: a real
// 3-record journal, the same journal torn mid-frame, one that repeats an
// index, and a header claiming 1<<50 sites.
func fuzzSeeds(t testing.TB) [][]byte {
	dir := t.TempDir()
	read := func(name string, fp Fingerprint, recs ...Record) []byte {
		path := filepath.Join(dir, name)
		writeJournal(t, path, fp, recs...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	whole := read("whole.journal", testFP(), rec(2), rec(0), rec(1))
	huge := testFP()
	huge.Sites = 1 << 50
	return [][]byte{
		whole,
		whole[:len(whole)-5],
		read("repeat.journal", testFP(), rec(0), rec(1), rec(0)),
		read("huge.journal", huge, rec(0), Record{Index: 1 << 49}),
	}
}

// FuzzReadFile: for arbitrary bytes, ReadFile and Open never panic, and
// whatever they accept obeys the decoder's rule — every index in
// [0, Sites), once, with a non-negative key — with ReadFile's records in
// index order. Open truncates a torn tail, so a second Open replays the
// same records. The readers' memory follows the bytes, not the header's
// claimed Sites (the 1<<50 seed would exhaust memory otherwise).
func FuzzReadFile(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fp, recs, err := ReadFile(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("ReadFile: %v is not ErrCorrupt", err)
			}
			return
		}
		for k, r := range recs {
			if r.Index < 0 || r.Index >= fp.Sites || r.Thread < 0 || r.DynInst < 0 || r.Bit < 0 {
				t.Fatalf("ReadFile admitted invalid record %+v under %d sites", r, fp.Sites)
			}
			if k > 0 && recs[k-1].Index >= r.Index {
				t.Fatalf("ReadFile records out of index order or repeated at %d: %d then %d", k, recs[k-1].Index, r.Index)
			}
		}

		j, err := Open(path, fp)
		if err != nil {
			t.Fatalf("Open rejected what ReadFile accepted: %v", err)
		}
		first := j.Replayed()
		j.Close()
		if len(first) != len(recs) {
			t.Fatalf("Open replayed %d records, ReadFile read %d", len(first), len(recs))
		}
		j, err = Open(path, fp)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer j.Close()
		second := j.Replayed()
		if len(second) != len(first) {
			t.Fatalf("second Open replayed %d records, first %d", len(second), len(first))
		}
		for k := range first {
			if first[k] != second[k] {
				t.Fatalf("replay %d differs across Opens: %+v vs %+v", k, first[k], second[k])
			}
		}
	})
}

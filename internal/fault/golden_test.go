package fault_test

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update re-records every golden table of this package's tests
// (testdata/*.json) from this build instead of comparing against it.
var update = flag.Bool("update", false, "re-record the golden tables under testdata/")

// goldenTable holds got, a table of named entries, to the one recorded in
// path: it reports an entry produced but not recorded and one recorded but
// no longer produced, and hands every pair sharing a name to diff. Under
// -update it first rewrites path with got, so the comparison passes and
// the recording shows in the change's diff.
func goldenTable[E any](t *testing.T, path string, got []E, name func(E) string, diff func(got, want E)) {
	t.Helper()
	if *update {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []E
	if err := json.Unmarshal(buf, &recorded); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	want := make(map[string]E, len(recorded))
	for _, w := range recorded {
		want[name(w)] = w
	}
	for _, g := range got {
		w, ok := want[name(g)]
		if !ok {
			t.Errorf("%s: %s is not recorded; re-record with -update", path, name(g))
			continue
		}
		delete(want, name(g))
		diff(g, w)
	}
	for _, w := range recorded {
		if _, ok := want[name(w)]; ok {
			t.Errorf("%s: %s is recorded but no longer produced; re-record with -update", path, name(w))
		}
	}
}

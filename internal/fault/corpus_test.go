package fault_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/report"
)

// The corpus's two golden tables. The identity table holds what a change
// that keeps every outcome keeps byte for byte; the cost table holds what
// only a change to how much the engine skips may move.
const (
	corpusIdentityFile = "testdata/corpus_identity.json"
	corpusCostFile     = "testdata/corpus_cost.json"
)

// identityEntry is one artefact's recorded bytes: a document small enough
// to read in a diff stored whole, anything larger as its SHA-256.
type identityEntry struct {
	Artefact string          `json:"artefact"`
	SHA256   string          `json:"sha256,omitempty"`
	Doc      json.RawMessage `json:"doc,omitempty"`
}

// costEntry is one journal file's raw bytes and the cost members its
// records carry, as a merged report counts them.
type costEntry struct {
	Journal     string `json:"journal"`
	SHA256      string `json:"sha256"`
	CTAsSkipped int64  `json:"ctas_skipped"`
	EarlyExits  int64  `json:"early_exits"`
	IntraSkips  int64  `json:"intra_skips"`
}

// costMembers matches the record members cs, ee and ir in a record
// payload: the fast-forward cost of a site, not its outcome.
var costMembers = regexp.MustCompile(`,"(cs|ee|ir)":(true|[0-9]+)`)

// corpus rebuilds the verify loop's artefacts in-process, through the
// calls the CLIs make with the CLIs' defaults, at Parallelism 1, which
// makes a journal's record order, and so its bytes, deterministic.
type corpus struct {
	t        *testing.T
	dir      string
	cache    *fault.PreparedCache
	identity []identityEntry
	cost     []costEntry
}

func (c *corpus) prepare(s campaign.Spec) *campaign.Prepared {
	c.t.Helper()
	p, err := s.Prepare(c.cache)
	if err != nil {
		c.t.Fatal(err)
	}
	return p
}

// journal runs s into a fresh journal file, as fsprune -action campaign
// -journal does, and records the file in both tables.
func (c *corpus) journal(name string, s campaign.Spec) string {
	c.t.Helper()
	path := filepath.Join(c.dir, fmt.Sprintf("%03d.journal", len(c.cost)))
	j, err := journal.Open(path, s.Fingerprint())
	if err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.prepare(s).Run(fault.CampaignOptions{Parallelism: 1, Journal: j}); err != nil {
		c.t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		c.t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		c.t.Fatal(err)
	}
	// The identity digest reads the payloads from the file's own frames
	// (u32 length, u32 CRC, payload), so the codec's bytes are pinned, not
	// a re-encoding's.
	h := sha256.New()
	for b := raw; len(b) > 0; {
		if len(b) < 8 || len(b)-8 < int(binary.LittleEndian.Uint32(b)) {
			c.t.Fatalf("%s: torn frame in a closed journal", name)
		}
		n := 8 + int(binary.LittleEndian.Uint32(b))
		h.Write(costMembers.ReplaceAll(b[8:n], nil))
		h.Write([]byte{'\n'})
		b = b[n:]
	}
	c.identity = append(c.identity, identityEntry{Artefact: name + ": journal", SHA256: hex.EncodeToString(h.Sum(nil))})

	_, recs, err := journal.ReadFile(path)
	if err != nil {
		c.t.Fatal(err)
	}
	var st fault.CampaignStats
	for _, r := range recs {
		st.AddRecord(r)
	}
	c.cost = append(c.cost, costEntry{Journal: name, SHA256: digest(raw),
		CTAsSkipped: st.CTAsSkipped, EarlyExits: st.EarlyExits, IntraSkips: st.IntraSkips})
	return path
}

// merged is fsmerge -json over paths, without the three cost keys: each
// journal's cost table entry holds them.
func (c *corpus) merged(name string, paths ...string) {
	c.t.Helper()
	fp, recs, err := journal.Merge(paths, false)
	if err != nil {
		c.t.Fatal(err)
	}
	doc, err := report.NewMerged(fp, recs)
	if err != nil {
		c.t.Fatal(err)
	}
	doc.Campaign.CTAsSkipped, doc.Campaign.EarlyExits, doc.Campaign.IntraSkips = 0, 0, 0
	c.identity = append(c.identity, identityEntry{Artefact: name, Doc: c.write(doc)})
}

// advice is fsadvise -journal path -json, recorded as its SHA-256.
func (c *corpus) advice(name, path string) {
	c.t.Helper()
	fp, recs, err := journal.Merge([]string{path}, false)
	if err != nil {
		c.t.Fatal(err)
	}
	s, err := campaign.FromFingerprint(fp)
	if err != nil {
		c.t.Fatal(err)
	}
	in, err := advisor.FromJournal(c.prepare(s).Target, fp, recs)
	if err != nil {
		c.t.Fatal(err)
	}
	adv, err := advisor.Analyze(in, advisor.Options{RankBy: advisor.RankSDC, Confidence: 0.95})
	if err != nil {
		c.t.Fatal(err)
	}
	c.identity = append(c.identity, identityEntry{Artefact: name, SHA256: digest(c.write(adv))})
}

// pipeline is fsprune -action plan -json and -action estimate -json on s:
// the pruned plan, its estimate and s's random baseline.
func (c *corpus) pipeline(name string, s campaign.Spec) {
	c.t.Helper()
	p := c.prepare(s)
	plan, err := core.BuildPlan(p.Target, core.Options{Seed: s.Seed})
	if err != nil {
		c.t.Fatal(err)
	}
	c.identity = append(c.identity, identityEntry{Artefact: name + ": plan", Doc: c.write(report.NewPlan(plan))})
	opt := fault.CampaignOptions{Parallelism: 1}
	est, err := plan.EstimateResult(opt)
	if err != nil {
		c.t.Fatal(err)
	}
	res, err := p.Run(opt)
	if err != nil {
		c.t.Fatal(err)
	}
	doc := report.NewEstimate(plan, est.Dist, &res.Dist)
	c.identity = append(c.identity, identityEntry{Artefact: name + ": estimate", Doc: c.write(doc)})
}

func (c *corpus) write(v any) []byte {
	c.t.Helper()
	var buf bytes.Buffer
	if err := report.Write(&buf, v); err != nil {
		c.t.Fatal(err)
	}
	return buf.Bytes()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// asWritten renders a document recorded in a table as report.Write wrote
// it, so a recorded document compares with a fresh one byte for byte.
func asWritten(t *testing.T, doc json.RawMessage) []byte {
	t.Helper()
	var compact, buf bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Indent(&buf, compact.Bytes(), "", "  "); err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), '\n')
}

// firstLineDiff names the first line where got and want differ.
func firstLineDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; ; i++ {
		switch {
		case i >= len(g) || i >= len(w):
			return fmt.Sprintf("line %d: got %d lines, recorded %d", i+1, len(g), len(w))
		case g[i] != w[i]:
			return fmt.Sprintf("line %d: got %q, recorded %q", i+1, g[i], w[i])
		}
	}
}

// TestCorpus is the verify loop as one recorded corpus: the journals,
// shard journals, fsmerge reports and advice of GEMM K1 and HotSpot K1
// under four fault models and both schedulers, each kernel's plan and
// estimate, and journals of two paper-scale campaigns and of the three
// single-CTA LUD kernels, rebuilt in-process and held to
// testdata/corpus_identity.json and testdata/corpus_cost.json. -update
// rewrites both (go test ./internal/fault -run TestCorpus -update); a
// change that moves only cost moves only the cost table's bytes, and says
// why.
func TestCorpus(t *testing.T) {
	type group struct {
		name  string
		build func(c *corpus)
	}
	var groups []group
	addJournal := func(name string, s campaign.Spec) {
		groups = append(groups, group{name, func(c *corpus) { c.journal(name, s) }})
	}
	for _, k := range []string{"GEMM K1", "HotSpot K1"} {
		for _, m := range []string{"dest-value", "mem-addr", "lane-correlated", "stuck-pred"} {
			for _, w := range []int{0, 32} {
				name := fmt.Sprintf("%s small %s warp %d", k, m, w)
				groups = append(groups, group{name, func(c *corpus) {
					s := campaign.Spec{Kernel: k, Scale: "small", Seed: 1, Sites: 150, Model: m, Warp: w}
					whole := c.journal(name, s)
					var shards []string
					for i := range 2 {
						s.ShardIndex, s.ShardCount = i, 2
						shards = append(shards, c.journal(fmt.Sprintf("%s shard %d/2", name, i), s))
					}
					c.merged(name+": fsmerge", whole)
					c.merged(name+": fsmerge shards", shards...)
					c.advice(name+": advice", whole)
				}})
			}
		}
		groups = append(groups, group{k + " small", func(c *corpus) {
			c.pipeline(k+" small", campaign.Spec{Kernel: k, Scale: "small", Seed: 1, Sites: 150, Model: "dest-value"})
		}})
	}
	for _, k := range []string{"K-Means K2", "HotSpot K1"} {
		addJournal(k+" paper dest-value warp 0", campaign.Spec{Kernel: k, Scale: "paper", Seed: 1, Sites: 300, Model: "dest-value"})
	}
	for _, k := range []string{"LUD K44", "LUD K45", "LUD K46"} {
		for _, w := range []int{0, 32} {
			addJournal(fmt.Sprintf("%s small dest-value warp %d", k, w),
				campaign.Spec{Kernel: k, Scale: "small", Seed: 1, Sites: 300, Model: "dest-value", Warp: w})
		}
	}

	// Groups build concurrently, each campaign at Parallelism 1; the
	// tables list them in the order above.
	cache := fault.NewPreparedCache(0)
	parts := make([]corpus, len(groups))
	t.Run("build", func(t *testing.T) {
		for i, g := range groups {
			t.Run(g.name, func(t *testing.T) {
				t.Parallel()
				parts[i] = corpus{t: t, dir: t.TempDir(), cache: cache}
				g.build(&parts[i])
			})
		}
	})
	if t.Failed() {
		return
	}
	var identity []identityEntry
	var cost []costEntry
	for _, p := range parts {
		identity = append(identity, p.identity...)
		cost = append(cost, p.cost...)
	}

	goldenTable(t, corpusIdentityFile, identity, func(e identityEntry) string { return e.Artefact },
		func(g, w identityEntry) {
			if w.Doc == nil {
				if g.SHA256 != w.SHA256 {
					t.Errorf("%s: SHA-256 %s, recorded %s", g.Artefact, g.SHA256, w.SHA256)
				}
				return
			}
			if want := asWritten(t, w.Doc); !bytes.Equal(g.Doc, want) {
				t.Errorf("%s: document differs from the recorded one at %s", g.Artefact, firstLineDiff(g.Doc, want))
			}
		})
	goldenTable(t, corpusCostFile, cost, func(e costEntry) string { return e.Journal },
		func(g, w costEntry) {
			if g != w {
				t.Errorf("%s: journal cost %+v, recorded %+v", g.Journal, g, w)
			}
		})
}

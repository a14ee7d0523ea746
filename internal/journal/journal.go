// Package journal implements the append-only write-ahead outcome journal
// behind durable, resumable injection campaigns. One record is written per
// completed fault site (its key, outcome, weight, fast-forward cost and —
// for quarantined sites — the engine error).
//
// # On-disk format
//
// A journal is a flat sequence of frames. Each frame is
//
//	[u32 payload length][u32 CRC32C of payload][JSON payload]
//
// with both header words little-endian and the CRC using the Castagnoli
// polynomial. Frame 0's payload is the campaign Fingerprint (the header);
// every following frame's payload is one Record, as json.Marshal writes it.
// The header is written by encoding/json. A record is written by the
// package's own encoder (codec.go), which produces json.Marshal's bytes
// without reflection — keys i,t,d,b,o,w,cs,ee,ir,a in struct order, zero
// omitempty fields left out, the weight formatted as encoding/json formats
// a float64 — and defers to json.Marshal only for a record carrying an
// engine error. On the read side the payload's bytes pick the decoder: that
// canonical shape is parsed by hand; anything else — an engine error, a
// legacy key such as "fb" from older builds, whitespace, an escape,
// arbitrary bytes — goes to encoding/json, the reference both halves are
// fuzzed against (FuzzRecordCodec). Appends write each frame
// with a single Write call, so a crash or kill -9 can only tear the final
// frame; on the next Open the scan stops at the first short, oversized or
// checksum-failing frame and truncates the file there (the torn-tail rule)
// — a torn tail costs at most one site's record, never the file. The header
// frame and the truncation are fsynced (the file, and on creation its
// directory entry), so a crash shortly after Open can neither lose the
// journal's birth nor resurrect bytes of a previously truncated tail under
// later appends; AutoSync additionally bounds how many acked records an
// unclean shutdown can lose.
//
// The journal opens against a campaign fingerprint (kernel, scale, seed,
// model, warp, site count, shard — what decides the site list and each
// site's outcome); a journal written under a different fingerprint is
// rejected as stale rather than silently replayed into the wrong campaign,
// and the error spells out the differing fields (see Fingerprint.Diff). How
// the engine reaches an outcome (checkpoint strides, the full-run reference)
// is not identity: headers written when it was still carry stride and
// full-run keys, which decode and are ignored.
//
// The caller contract is write-ahead in the outcome sense: a record is
// appended only after its site's outcome is final, so every replayed record
// can be skipped on resume and the resumed campaign's aggregate is
// bit-identical to an uninterrupted run. Records from distinct shards of one
// campaign are disjoint by construction and merge via Merge.
package journal

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
)

// Fingerprint identifies the campaign a journal belongs to: the tuple
// (kernel, scale, seed, size, fault model, scheduler width, shard) that
// decides the site list and each site's outcome, declared here once.
// campaign.Spec is this type, and every document that names a campaign
// (report.Merged, report.Advice) carries it whole. Every field
// participates in staleness detection: replaying outcomes recorded under a
// different kernel, scale, seed, fault model, scheduler, site count or shard
// assignment would silently corrupt the resumed profile. Engine tuning is
// deliberately absent: checkpointed = full-run at every stride, so a journal
// resumes and merges under any. The JSON tags are the header's bytes, and
// fsserve's submission wire format.
type Fingerprint struct {
	// Kernel is the target kernel name ("GEMM K1"); see fsprune -list.
	Kernel string `json:"kernel"`
	// Scale is the kernel geometry, "small" or "paper".
	Scale string `json:"scale,omitempty"`
	// Seed is the site-sampling seed.
	Seed int64 `json:"seed"`
	// Model is the fault model name (fault.ParseModel, fault.Model.String).
	Model string `json:"model"`
	// Warp is the SIMT lockstep width (0 = serial interleaving).
	Warp int `json:"warp,omitempty"`
	// Sites is the campaign size: uniform random sites, all shards.
	Sites int `json:"sites"`
	// ShardIndex / ShardCount locate this journal's shard. An unsharded
	// campaign is shard 0 of 1; a submission may leave ShardCount 0 for
	// unsharded, which campaign.Spec.Fingerprint writes as 0/1.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`
}

// String renders the fingerprint for error messages.
func (f Fingerprint) String() string {
	return fmt.Sprintf("%s/%s seed=%d model=%s warp=%d sites=%d shard=%d/%d",
		f.Kernel, f.Scale, f.Seed, f.Model, f.Warp, f.Sites, f.ShardIndex, f.ShardCount)
}

// SameCampaign reports whether two fingerprints describe shards of the same
// campaign (everything equal except the shard index).
func (f Fingerprint) SameCampaign(o Fingerprint) bool {
	f.ShardIndex, o.ShardIndex = 0, 0
	return f == o
}

// Diff lists the fields on which f (the expected fingerprint) and o (the
// one actually found) disagree, as "field: want X, got Y" clauses — the
// actionable part of a mismatch error. Returns "" when the fingerprints are
// equal.
func (f Fingerprint) Diff(o Fingerprint) string {
	var parts []string
	add := func(field string, want, got any) {
		if want != got {
			parts = append(parts, fmt.Sprintf("%s: want %v, got %v", field, want, got))
		}
	}
	add("kernel", f.Kernel, o.Kernel)
	add("scale", f.Scale, o.Scale)
	add("seed", f.Seed, o.Seed)
	add("model", f.Model, o.Model)
	add("warp", f.Warp, o.Warp)
	add("sites", f.Sites, o.Sites)
	add("shard_index", f.ShardIndex, o.ShardIndex)
	add("shard_count", f.ShardCount, o.ShardCount)
	return strings.Join(parts, "; ")
}

// Record is one completed fault site. Field names are shortened because a
// paper-scale campaign journals tens of thousands of records.
type Record struct {
	// Index is the site's input-order index in the campaign site list.
	Index int `json:"i"`
	// Thread, DynInst, Bit are the site key, stored redundantly with Index
	// so a resumed campaign can verify the journal matches its site list.
	Thread  int   `json:"t"`
	DynInst int64 `json:"d"`
	Bit     int   `json:"b"`
	// Outcome is the numeric fault.Outcome.
	Outcome uint8 `json:"o"`
	// Weight is the site's population weight, carried so a merge can
	// rebuild the weighted distribution without re-deriving the site list.
	Weight float64 `json:"w"`
	// CTAsSkipped, EarlyExit and IntraResumed are the run's fast-forward
	// cost stats (IntraResumed marks a run resumed inside the injected CTA
	// — from an intra-CTA snapshot or at the injected thread's start —
	// skipping the CTA's fault-free prefix).
	CTAsSkipped  int64 `json:"cs,omitempty"`
	EarlyExit    bool  `json:"ee,omitempty"`
	IntraResumed bool  `json:"ir,omitempty"`
	// Attempts is how many executions the outcome took: 1 in every record
	// this build writes, larger in journals of older builds that retried a
	// failing site.
	Attempts int `json:"a,omitempty"`
	// Err is the recorded engine error of a quarantined site.
	Err string `json:"e,omitempty"`
}

// Journal errors.
var (
	// ErrFingerprintMismatch reports a journal recorded under a different
	// engine fingerprint (stale journal, or the wrong file).
	ErrFingerprintMismatch = errors.New("journal: fingerprint mismatch")
	// ErrCorrupt reports a journal whose prefix (not merely its tail) cannot
	// be decoded, or that holds a record no campaign writes: a site index
	// out of range or repeated, or a negative site key.
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrClosed reports an append to a closed journal.
	ErrClosed = errors.New("journal: closed")
)

// crcTable is the Castagnoli polynomial, the standard choice for storage
// framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxFrame bounds a single record's payload; anything larger in a frame
// header means the header bytes are garbage, not a record.
const maxFrame = 1 << 20

// Journal is an open, appendable outcome journal. Append is safe for
// concurrent use by campaign workers.
type Journal struct {
	mu        sync.Mutex
	f         *os.File
	path      string
	fp        Fingerprint
	replayed  []Record
	appended  int
	closed    bool
	syncEvery int
	sinceSync int
	// buf is the frame Append encodes each record into, reused under mu.
	buf []byte
}

// frame wraps payload with its length + CRC32C header.
func frame(payload []byte) []byte {
	return seal(append(make([]byte, 8, 8+len(payload)), payload...))
}

// seal fills the 8-byte header that buf reserves for the payload after it.
func seal(buf []byte) []byte {
	payload := buf[8:]
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(payload, crcTable))
	return buf
}

// scan walks CRC frames in data, returning the decoded payloads and the
// offset of the first byte past the last whole, checksum-valid frame. A
// short, oversized or checksum-failing frame ends the scan (torn tail).
func scan(data []byte) (payloads [][]byte, goodEnd int) {
	off := 0
	for {
		if len(data)-off < 8 {
			return payloads, off
		}
		n := binary.LittleEndian.Uint32(data[off:])
		crc := binary.LittleEndian.Uint32(data[off+4:])
		if n > maxFrame || off+8+int(n) > len(data) {
			return payloads, off
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.Checksum(payload, crcTable) != crc {
			return payloads, off
		}
		payloads = append(payloads, payload)
		off += 8 + int(n)
	}
}

// decode parses a scanned journal image: fingerprint header frame followed
// by record frames. It is the one gate every reader passes through: each
// record's site index lies in [0, Sites) and appears once, and its site key
// is non-negative. The records come back in on-disk order, with their keys
// in index order (indexOrder); repeats are found as equal neighbours there,
// in memory proportional to the records present, never to the header's
// claimed Sites. The error names the first offending record, as a reader
// checking record by record would.
func decode(payloads [][]byte) (Fingerprint, []Record, []siteKey, error) {
	var fp Fingerprint
	if len(payloads) == 0 {
		return fp, nil, nil, fmt.Errorf("%w: no fingerprint header survived", ErrCorrupt)
	}
	if err := json.Unmarshal(payloads[0], &fp); err != nil {
		return fp, nil, nil, fmt.Errorf("%w: fingerprint header: %v", ErrCorrupt, err)
	}
	recs := make([]Record, 0, len(payloads)-1)
	var bad error
	for _, p := range payloads[1:] {
		r, err := decodeRecord(p)
		if err != nil {
			bad = fmt.Errorf("%w: record %d: %v", ErrCorrupt, len(recs), err)
			break
		}
		if r.Index < 0 || r.Index >= fp.Sites {
			bad = fmt.Errorf("%w: record %d: site index %d out of range [0,%d)", ErrCorrupt, len(recs), r.Index, fp.Sites)
			break
		}
		if r.Thread < 0 || r.DynInst < 0 || r.Bit < 0 {
			// A repeated index outranks a negative key on the same
			// record, so the record joins the repeat check below.
			bad = fmt.Errorf("%w: record %d: site %d carries a negative key (%d,%d,%d)",
				ErrCorrupt, len(recs), r.Index, r.Thread, r.DynInst, r.Bit)
			recs = append(recs, r)
			break
		}
		recs = append(recs, r)
	}
	keys := indexOrder(recs)
	if at := firstRepeat(keys); at >= 0 {
		return fp, nil, nil, fmt.Errorf("%w: record %d: site %d recorded twice", ErrCorrupt, at, recs[at].Index)
	}
	if bad != nil {
		return fp, nil, nil, bad
	}
	return fp, recs, keys, nil
}

// siteKey is a record's site index and its position in on-disk order.
type siteKey struct{ index, pos int }

// indexOrder returns the keys of recs sorted by site index, equal indices
// in on-disk order. It is the one sort of records by index: decode finds
// repeats in it, and ReadFile lays records out by it.
// Sorting 16-byte keys rather than whole records keeps the swaps small,
// and a journal written in nearly index order sorts in nearly linear time.
func indexOrder(recs []Record) []siteKey {
	keys := make([]siteKey, len(recs))
	for k, r := range recs {
		keys[k] = siteKey{r.Index, k}
	}
	slices.SortFunc(keys, func(a, b siteKey) int {
		if c := cmp.Compare(a.index, b.index); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})
	return keys
}

// firstRepeat returns the earliest on-disk position holding a site index
// that an earlier position already holds, or -1 when every index is
// distinct. In a group of equal keys, the second is the first repeat.
func firstRepeat(keys []siteKey) int {
	at := -1
	for k := 1; k < len(keys); k++ {
		if keys[k].index == keys[k-1].index && (at < 0 || keys[k].pos < at) {
			at = keys[k].pos
		}
	}
	return at
}

// arrange permutes recs in place into the order keys lists (keys must be
// indexOrder(recs)), following each cycle of the permutation once. keys is
// spent: each entry is marked as placed.
func arrange(recs []Record, keys []siteKey) {
	for start := range keys {
		if keys[start].pos == start {
			continue
		}
		held := recs[start]
		k := start
		for {
			from := keys[k].pos
			keys[k].pos = k
			if from == start {
				recs[k] = held
				break
			}
			recs[k] = recs[from]
			k = from
		}
	}
}

// Open opens (or creates) the journal at path for the campaign described by
// fp. A new file gets a fingerprint header; an existing file must carry an
// identical fingerprint or Open fails with ErrFingerprintMismatch. Complete
// records already on disk are available via Replayed; a torn tail (crash or
// kill -9 mid-write) is truncated. The returned journal is positioned for
// appending.
func Open(path string, fp Fingerprint) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	j := &Journal{f: f, path: path, fp: fp}

	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: read %s: %w", path, err)
	}
	if len(data) == 0 {
		payload, err := json.Marshal(fp)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: %w", err)
		}
		if _, err := f.Write(frame(payload)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: write header: %w", err)
		}
		// A journal only exists to survive crashes, so its birth must too:
		// flush the header and the directory entry before reporting the file
		// open, or a crash could leave a journal that Open once acknowledged
		// but that has no header (ErrCorrupt) — or no file at all.
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: sync header: %w", err)
		}
		if err := syncDir(path); err != nil {
			f.Close()
			return nil, err
		}
		return j, nil
	}

	payloads, goodEnd := scan(data)
	have, recs, _, err := decode(payloads)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if have != fp {
		f.Close()
		return nil, fmt.Errorf("%w: %s was recorded for a different campaign (%s)",
			ErrFingerprintMismatch, path, fp.Diff(have))
	}
	if goodEnd < len(data) {
		// Torn tail: drop the partial frame so the next append starts on a
		// clean boundary — and force the truncation to stable storage. An
		// unsynced truncate followed by appends and a crash could resurrect
		// bytes of the torn frame in the middle of the file, turning a
		// one-record tail loss into a corrupt prefix that costs every record
		// after it.
		if err := f.Truncate(int64(goodEnd)); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: truncate torn tail of %s: %w", path, err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal: sync truncated %s: %w", path, err)
		}
	}
	if _, err := f.Seek(int64(goodEnd), io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.replayed = recs
	return j, nil
}

// syncDir flushes the directory entry of path, making a freshly created
// file durable (fsync of a file does not persist its directory entry).
func syncDir(path string) error {
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: sync dir %s: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: sync dir %s: %w", dir, err)
	}
	return nil
}

// Rename moves the journal file at from to the unused path to in the same
// directory, durably: the directory entry is flushed before Rename returns,
// so a crash cannot bring the old name back beside later appends under the
// new one. It refuses to replace an existing file.
func Rename(from, to string) error {
	if _, err := os.Lstat(to); err == nil {
		return fmt.Errorf("journal: rename %s: %s already exists", from, to)
	} else if !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("journal: rename %s: %w", from, err)
	}
	if err := os.Rename(from, to); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(to)
}

// Replayed returns the records that were already complete on disk when the
// journal was opened, in on-disk order.
func (j *Journal) Replayed() []Record { return j.replayed }

// AutoSync makes every n-th Append flush the file to stable storage, a
// middle ground between syncing nothing until Close (a crash loses every
// acked record since open) and paying an fsync per record. n <= 0 disables
// periodic flushing. The long-lived campaign service runs with a small n;
// the batch CLIs keep the default (sync on Close only) since their records
// are cheap to recompute.
func (j *Journal) AutoSync(n int) {
	j.mu.Lock()
	j.syncEvery = n
	j.sinceSync = 0
	j.mu.Unlock()
}

// Fingerprint returns the campaign fingerprint the journal was opened with.
func (j *Journal) Fingerprint() Fingerprint { return j.fp }

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Count returns the total number of site records in the journal: replayed
// plus appended this session. Safe for concurrent use.
func (j *Journal) Count() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.replayed) + j.appended
}

// Append writes one completed-site record. The frame is written with a
// single Write call, so a crash can only tear the final record — which the
// next Open truncates.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The frame's 8 header bytes come first; seal fills them in.
	buf, err := appendRecord(append(j.buf[:0], make([]byte, 8)...), r)
	j.buf = buf
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	if j.closed {
		return ErrClosed
	}
	if _, err := j.f.Write(seal(buf)); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.appended++
	if j.syncEvery > 0 {
		j.sinceSync++
		if j.sinceSync >= j.syncEvery {
			j.sinceSync = 0
			if err := j.f.Sync(); err != nil {
				return fmt.Errorf("journal: sync: %w", err)
			}
		}
	}
	return nil
}

// Sync flushes the journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.f.Sync()
}

// Close syncs and closes the journal. Further appends fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads a journal without opening it for append, tolerating a torn
// tail, and returns its records in site-index order: on-disk order is
// completion order, which must not leak into any aggregation of them.
func ReadFile(path string) (Fingerprint, []Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Fingerprint{}, nil, fmt.Errorf("journal: %w", err)
	}
	payloads, _ := scan(data)
	fp, recs, keys, err := decode(payloads)
	if err != nil {
		return fp, nil, fmt.Errorf("%s: %w", path, err)
	}
	arrange(recs, keys)
	return fp, recs, nil
}

// Merge reads N shard journals of one campaign and returns the campaign
// fingerprint (with ShardIndex cleared) and all records sorted by site
// index. It validates that every journal carries the same campaign
// fingerprint, that shard indices are within range and not duplicated, that
// no site index is recorded twice, and — unless allowPartial — that every
// shard is present and every one of the fingerprint's sites has a record.
// Errors come in the order of a check path by path: a journal's records are
// checked against earlier journals' before later journals are read.
func Merge(paths []string, allowPartial bool) (Fingerprint, []Record, error) {
	fp, _, recs, err := MergeShards(paths, allowPartial)
	return fp, recs, err
}

// MergeShards is Merge that also returns the indices of the shards the
// journals hold, in increasing order. A partial merge holds fewer than the
// fingerprint's ShardCount, and the fingerprint cannot name them.
func MergeShards(paths []string, allowPartial bool) (Fingerprint, []int, []Record, error) {
	if len(paths) == 0 {
		return Fingerprint{}, nil, nil, errors.New("journal: no journals to merge")
	}
	var base Fingerprint
	var shards [][]Record
	var bad error                 // the first journal that fails on its own
	shardSeen := map[int]string{} // shard index -> journal path
	for n, path := range paths {
		fp, recs, err := ReadFile(path)
		if err != nil {
			bad = err
			break
		}
		if n == 0 {
			base = fp
			base.ShardIndex = 0
		} else if !fp.SameCampaign(base) {
			// A model mismatch gets its own message: mixing fault models is
			// the likeliest operator slip, and "model: want X, got Y" buried
			// in a field diff under-sells that the outcomes are incomparable.
			if fp.Model != base.Model {
				bad = fmt.Errorf("%w: %s was recorded under fault model %q but %s under %q; shards of one campaign must share a model",
					ErrFingerprintMismatch, paths[0], base.Model, path, fp.Model)
				break
			}
			want, got := base, fp
			want.ShardIndex, got.ShardIndex = 0, 0
			bad = fmt.Errorf("%w: %s and %s are not shards of one campaign (%s)",
				ErrFingerprintMismatch, paths[0], path, want.Diff(got))
			break
		}
		if fp.ShardCount < 1 || fp.ShardIndex < 0 || fp.ShardIndex >= fp.ShardCount {
			bad = fmt.Errorf("journal: %s: shard %d/%d out of range",
				path, fp.ShardIndex, fp.ShardCount)
			break
		}
		if prev, dup := shardSeen[fp.ShardIndex]; dup {
			bad = fmt.Errorf("journal: shard %d appears in both %s and %s",
				fp.ShardIndex, prev, path)
			break
		}
		shardSeen[fp.ShardIndex] = path
		shards = append(shards, recs)
	}
	// Input-order aggregation downstream depends on index order: each
	// journal arrives sorted, but the shards' indices interleave.
	all, rep := mergeSorted(shards)
	if rep.later > 0 {
		return base, nil, nil, fmt.Errorf("journal: site %d recorded by both %s and %s",
			rep.index, paths[rep.earlier], paths[rep.later])
	}
	if bad != nil {
		return base, nil, nil, bad
	}
	if !allowPartial {
		if len(shardSeen) != base.ShardCount {
			return base, nil, nil, fmt.Errorf("journal: %d of %d shards present (pass every shard journal, or allow a partial merge)",
				len(shardSeen), base.ShardCount)
		}
		if len(all) != base.Sites {
			return base, nil, nil, fmt.Errorf("journal: %d of %d sites recorded (campaign incomplete; resume the missing shards, or allow a partial merge)",
				len(all), base.Sites)
		}
	}
	held := make([]int, 0, len(shardSeen))
	for index := range shardSeen {
		held = append(held, index)
	}
	slices.Sort(held)
	return base, held, all, nil
}

// repeat is a site index held by two shard journals, numbered by their
// position among Merge's paths. later is 0 when there is none.
type repeat struct{ index, earlier, later int }

// mergeSorted k-way merges shard record lists, each in strictly increasing
// index order, into one index-ordered list. A site two shards both hold
// meets itself as equal neighbours; the repeat reported is the one a
// path-by-path check meets first: the earliest shard that repeats an
// earlier shard's site, at its lowest such index.
func mergeSorted(shards [][]Record) ([]Record, repeat) {
	if len(shards) == 1 {
		return shards[0], repeat{}
	}
	total := 0
	for _, recs := range shards {
		total += len(recs)
	}
	all := make([]Record, 0, total)
	// heap holds the shards with records left, as a binary min-heap on
	// (next record's index, shard number); next[s] is shard s's next record.
	next := make([]int, len(shards))
	less := func(a, b int) bool {
		ia, ib := shards[a][next[a]].Index, shards[b][next[b]].Index
		return ia < ib || ia == ib && a < b
	}
	var heap []int
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	for s, recs := range shards {
		if len(recs) > 0 {
			heap = append(heap, s)
		}
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		down(i)
	}
	var rep repeat
	owner := -1 // the shard that supplied all's last record
	for len(heap) > 0 {
		s := heap[0]
		r := shards[s][next[s]]
		if next[s]++; next[s] == len(shards[s]) {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		down(0)
		if n := len(all); n > 0 && all[n-1].Index == r.Index {
			if rep.later == 0 || s < rep.later {
				rep = repeat{r.Index, owner, s}
			}
			continue
		}
		all = append(all, r)
		owner = s
	}
	return all, rep
}

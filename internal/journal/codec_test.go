package journal

import (
	"encoding/json"
	"math"
	"path/filepath"
	"testing"
)

// sameRecord is record equality with the weight compared bit for bit, so
// that -0 and 0 differ.
func sameRecord(a, b Record) bool {
	wa, wb := math.Float64bits(a.Weight), math.Float64bits(b.Weight)
	a.Weight, b.Weight = 0, 0
	return a == b && wa == wb
}

// codecSeeds are payloads for FuzzRecordCodec's decoder half: canonical
// records, and near misses the hand decoder must leave to encoding/json —
// a leading zero, an unknown or case-folded key (encoding/json matches
// "A" to the "a" field), whitespace, a false flag, a legacy "fb" key, a
// signed zero outcome and out-of-range numbers.
var codecSeeds = []string{
	`{"i":2,"t":6,"d":22,"b":2,"o":2,"w":1.5,"cs":2,"ee":true,"a":1}`,
	`{"i":0,"t":0,"d":0,"b":0,"o":0,"w":-0}`,
	`{"i":-9223372036854775808,"t":9223372036854775807,"d":1,"b":1,"o":255,"w":1e-7,"ir":true}`,
	`{"i":01,"t":6,"d":22,"b":2,"o":2,"w":1.5}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":01.5}`,
	`{"i":1,"x":6,"d":22,"b":2,"o":2,"w":1.5}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":1.5,"A":3}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":1.5,"a":1,"A":3}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":1.5,"fb":true}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":1.5,"ee":false}`,
	`{"i":1, "t":6,"d":22,"b":2,"o":2,"w":1.5}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":-0,"w":1.5}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":256,"w":1.5}`,
	`{"i":1,"t":6,"d":9223372036854775808,"b":2,"o":2,"w":1.5}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":1e400}`,
	`{"i":1,"t":6,"d":22,"b":2,"o":2,"w":1.5,"e":"panic: \u2028<&>"}`,
}

// FuzzRecordCodec holds the hand codec to encoding/json, its reference:
// (a) for any record, appendRecord writes json.Marshal's bytes, or both
// fail; (b) whatever payload parseRecord accepts — fuzzed bytes or an
// encoded record — json.Unmarshal accepts as the identical Record; and (c)
// parseRecord accepts every record appendRecord wrote without an engine
// error, and gives the record back.
func FuzzRecordCodec(f *testing.F) {
	for k, p := range codecSeeds {
		r := rec(k)
		f.Add(int64(r.Index), int64(r.Thread), r.DynInst, int64(r.Bit), r.Outcome, math.Float64bits(r.Weight),
			r.CTAsSkipped, r.EarlyExit, r.IntraResumed, int64(r.Attempts), "", []byte(p))
	}
	for _, w := range []float64{1e-6, 9.99e-7, 1e-7, 1e21, 1e20, -1e21, 5e-324, math.MaxFloat64, -0.0, 123456789012345678, 0.1, math.NaN(), math.Inf(-1)} {
		f.Add(int64(-1), int64(1<<40), int64(math.MinInt64), int64(math.MaxInt64), uint8(255), math.Float64bits(w),
			int64(-7), true, true, int64(0), "", []byte(nil))
	}
	for _, e := range []string{"fault: <boom> & \u2028\u2029", "\xff\xfe invalid", "quote \" and \\ and \n"} {
		f.Add(int64(3), int64(9), int64(27), int64(3), uint8(5), math.Float64bits(1), int64(0), false, false, int64(3), e, []byte(nil))
	}
	f.Fuzz(func(t *testing.T, index, thread, dyn, bit int64, outcome uint8, wbits uint64,
		cs int64, ee, ir bool, attempts int64, errText string, payload []byte) {
		r := Record{
			Index: int(index), Thread: int(thread), DynInst: dyn, Bit: int(bit), Outcome: outcome,
			Weight: math.Float64frombits(wbits), CTAsSkipped: cs, EarlyExit: ee, IntraResumed: ir,
			Attempts: int(attempts), Err: errText,
		}
		got, gerr := appendRecord(nil, r)
		want, werr := json.Marshal(r)
		if (gerr != nil) != (werr != nil) || gerr == nil && string(got) != string(want) {
			t.Fatalf("encode %+v:\n got  %s (%v)\n want %s (%v)", r, got, gerr, want, werr)
		}
		for _, p := range [][]byte{payload, got} {
			hand, ok := parseRecord(p)
			if !ok {
				continue
			}
			var ref Record
			if err := json.Unmarshal(p, &ref); err != nil {
				t.Fatalf("hand decoder accepted %s, encoding/json rejects it: %v", p, err)
			}
			if !sameRecord(hand, ref) {
				t.Fatalf("payload %s: hand decoder %+v, encoding/json %+v", p, hand, ref)
			}
		}
		if gerr == nil && r.Err == "" {
			back, ok := parseRecord(got)
			if !ok || !sameRecord(back, r) {
				t.Fatalf("hand decoder on %s: %+v (ok %v), want %+v", got, back, ok, r)
			}
		}
	})
}

// TestAppendAllocs: an Append without an engine error encodes into the
// journal's reused frame buffer and allocates nothing.
func TestAppendAllocs(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "c.journal"), testFP())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	r := rec(3)
	r.IntraResumed = true
	allocs := testing.AllocsPerRun(200, func() {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Append allocates %v times per record, want 0", allocs)
	}
}

package gpusim_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/isa"
	"repro/internal/ptx"
)

// chainSetup builds a 6-CTA kernel with cross-CTA global-memory dependence:
// each thread accumulates into acc[tid] (shared by every CTA, so CTA c reads
// what CTA c-1 wrote) and stores the running value to out[gid]. acc lives on
// page 0 and out on page 1, so checkpoint page sets are non-trivial.
func chainSetup(t *testing.T) (*isa.Program, *gpusim.Device) {
	t.Helper()
	prog, err := ptx.Assemble("chain", `
		cvt.u32.u16 $r0, %tid.x
		cvt.u32.u16 $r1, %ctaid.x
		cvt.u32.u16 $r2, %ntid.x
		mad.lo.u32 $r3, $r1, $r2, $r0      // gid
		shl.u32 $r4, $r0, 0x00000002
		add.u32 $r4, $r4, s[0x0010]        // &acc[tid]
		ld.global.u32 $r5, [$r4]
		add.u32 $r5, $r5, $r3
		add.u32 $r5, $r5, 0x00000001
		st.global.u32 [$r4], $r5           // acc[tid] += gid+1
		shl.u32 $r6, $r3, 0x00000002
		add.u32 $r6, $r6, s[0x0014]        // &out[gid]
		st.global.u32 [$r6], $r5
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	dev := gpusim.NewDevice(2 * gpusim.PageSize)
	dev.WriteWords(0, []uint32{100, 200, 300, 400})
	return prog, dev
}

func chainLaunch(prog *isa.Program) *gpusim.Launch {
	return &gpusim.Launch{
		Prog:   prog,
		Grid:   gpusim.Dim3{X: 6, Y: 1, Z: 1},
		Block:  gpusim.Dim3{X: 4, Y: 1, Z: 1},
		Params: []uint32{0, gpusim.PageSize},
	}
}

// TestExecuteFirstCTAResume: stopping a launch at a CTA boundary and resuming
// from FirstCTA on the same device must reproduce the uninterrupted run
// bit-for-bit, for every split point and under both schedulers.
func TestExecuteFirstCTAResume(t *testing.T) {
	prog, init := chainSetup(t)
	for _, warp := range []int{0, 4} {
		full := init.Clone()
		l := chainLaunch(prog)
		l.WarpSize = warp
		res, err := gpusim.Execute(full, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("warp %d: golden trap: %v", warp, res.Trap)
		}
		if res.CTAsExecuted != 6 {
			t.Fatalf("warp %d: executed %d CTAs, want 6", warp, res.CTAsExecuted)
		}
		want := full.Bytes()

		for split := 1; split < 6; split++ {
			dev := init.Clone()
			head := chainLaunch(prog)
			head.WarpSize = warp
			head.AfterCTA = func(cta int, _ bool) bool { return cta == split-1 }
			hres, err := gpusim.Execute(dev, head)
			if err != nil {
				t.Fatal(err)
			}
			if hres.CTAsExecuted != split {
				t.Fatalf("split %d: head executed %d CTAs", split, hres.CTAsExecuted)
			}
			// The tail runs on the same device and overwrites hres in place.
			headICnt := append([]int64(nil), hres.ThreadICnt...)
			tail := chainLaunch(prog)
			tail.WarpSize = warp
			tail.FirstCTA = split
			tres, err := gpusim.Execute(dev, tail)
			if err != nil {
				t.Fatal(err)
			}
			if tres.Trap != nil {
				t.Fatalf("split %d: tail trap: %v", split, tres.Trap)
			}
			if tres.CTAsExecuted != 6-split {
				t.Fatalf("split %d: tail executed %d CTAs", split, tres.CTAsExecuted)
			}
			if !bytes.Equal(dev.Bytes(), want) {
				t.Fatalf("warp %d split %d: resumed memory differs from full run", warp, split)
			}
			// Head and tail iCnt tile the full run's without overlap.
			for th := range res.ThreadICnt {
				got := headICnt[th] + tres.ThreadICnt[th]
				if got != res.ThreadICnt[th] {
					t.Fatalf("split %d thread %d: iCnt %d+%d != %d",
						split, th, headICnt[th], tres.ThreadICnt[th], res.ThreadICnt[th])
				}
				if headICnt[th] != 0 && tres.ThreadICnt[th] != 0 {
					t.Fatalf("split %d thread %d ran in both halves", split, th)
				}
			}
		}
	}
}

// TestExecuteFirstCTAValidation: out-of-grid resume points are launch errors.
func TestExecuteFirstCTAValidation(t *testing.T) {
	prog, init := chainSetup(t)
	for _, first := range []int{-1, 6, 100} {
		l := chainLaunch(prog)
		l.FirstCTA = first
		if _, err := gpusim.Execute(init.Clone(), l); err == nil {
			t.Fatalf("FirstCTA %d accepted", first)
		}
	}
}

// TestHashPageHighBitDiffusion: equal deltas confined to the top bits of two
// different words must change the page hash. A plain XOR-multiply fold fails
// this — the multiply never diffuses top-bit deltas downward, so the second
// flip cancels the first (delta 2^63·p^k mod 2^64 = 2^63 for odd p) and a
// corrupted page would be declared converged.
func TestHashPageHighBitDiffusion(t *testing.T) {
	dev := gpusim.NewDevice(gpusim.PageSize)
	h0 := dev.HashPage(0)
	dev.WriteBytes(7, []byte{0x80})
	dev.WriteBytes(15, []byte{0x80})
	if dev.HashPage(0) == h0 {
		t.Fatal("paired top-bit flips cancel in HashPage")
	}
	// The same 32-bit corruption at two word-aligned offsets (the pattern a
	// cross-CTA accumulator kernel actually produces) must also be visible.
	dev2 := gpusim.NewDevice(gpusim.PageSize)
	h2 := dev2.HashPage(0)
	dev2.WriteWords(4, []uint32{0x40000000})
	dev2.WriteWords(36, []uint32{0x40000000})
	if dev2.HashPage(0) == h2 {
		t.Fatal("paired word corruptions cancel in HashPage")
	}
}

// TestCheckpointRecorder: golden replays from any snapshot must converge at
// the next boundary, corrupted state and skipped writes must show up as
// divergent pages, the access summaries must name the last loading and
// storing thread and each CTA's stored pages, and the word-granular refusal
// rule must follow them. (TestSnapshotForBoundaries checks the snapshots
// themselves.)
func TestCheckpointRecorder(t *testing.T) {
	prog, init := chainSetup(t)
	const numCTAs = 6
	golden := init.Clone()
	rec := gpusim.NewCheckpointRecorder(init, golden, numCTAs, 0)
	res, err := gpusim.Execute(golden, chainLaunch(prog))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("golden trap: %v", res.Trap)
	}
	ck := rec.Finish()
	if ck.NumCTAs() != numCTAs || ck.Bytes() < 0 {
		t.Fatalf("store reports %d CTAs, %d bytes", ck.NumCTAs(), ck.Bytes())
	}

	// A golden replay resumed from any CTA's snapshot converges at the
	// next boundary, the last one against the final image.
	for cta := 0; cta < numCTAs; cta++ {
		snap, first := ck.SnapshotFor(cta)
		w := init.Clone()
		w.ResetFrom(snap)
		rl := chainLaunch(prog)
		rl.FirstCTA = first
		rl.AfterCTA = func(c int, _ bool) bool { return c == cta }
		if _, err := gpusim.Execute(w, rl); err != nil {
			t.Fatal(err)
		}
		if !ck.Converged(w, cta+1) {
			t.Fatalf("golden replay does not converge at boundary %d", cta+1)
		}
		// Any corruption — in a page the replay wrote or not — must
		// break convergence.
		w.WriteBytes(gpusim.PageSize-1, []byte{0x5A})
		if ck.Converged(w, cta+1) {
			t.Fatalf("corrupted state converges at boundary %d", cta+1)
		}
		if d := ck.AppendDivergent(w, cta+1, nil); len(d) != 1 || d[0] != 0 {
			t.Fatalf("corrupted page 0 at boundary %d, divergent pages %v", cta+1, d)
		}
		// A run that wrote nothing since the snapshot still holds
		// snapshot content on both pages CTA cta changes.
		w.ResetFrom(snap)
		d := ck.AppendDivergent(w, cta+1, nil)
		slices.Sort(d)
		if !slices.Equal(d, []int32{0, 1}) {
			t.Fatalf("unwritten run at boundary %d, divergent pages %v, want [0 1]", cta+1, d)
		}
	}

	// The summaries are in thread time. Thread g (CTA g/4, tid g%4)
	// loads and stores acc[g%4] on page 0 and stores out[g] on page 1,
	// all whole words; nothing loads out.
	const tpc, threads = 4, numCTAs * 4
	for th := 0; th < threads; th++ {
		for addr := 0; addr < 32; addr++ {
			// The last writer of acc[w] is the last CTA's thread w.
			stored, partial := ck.StoredAfter(addr, th)
			if want := addr < 16 && (numCTAs-1)*tpc+addr/4 > th; stored != want || partial {
				t.Fatalf("StoredAfter(acc byte %d, %d) = %v, %v; want %v, false", addr, th, stored, partial, want)
			}
		}
		for gid := 0; gid < threads+4; gid++ {
			stored, _ := ck.StoredAfter(gpusim.PageSize+4*gid+3, th)
			if want := gid < threads && gid > th; stored != want {
				t.Fatalf("StoredAfter(out[%d], %d) = %v, want %v", gid, th, stored, want)
			}
		}
	}
	// Word-granular refusal: acc's words are loaded and stored until the
	// last thread, so page 0 refuses whatever a device holds; out is
	// never loaded, so page 1 never refuses. After CTA c's last thread
	// the question is the CTA-level one.
	dev := init.Clone()
	for th := 0; th < threads; th++ {
		if got, want := ck.ObservedAfter(dev, 0, th), th < threads-1; got != want {
			t.Fatalf("ObservedAfter(page 0, %d) = %v, want %v", th, got, want)
		}
		if ck.ObservedAfter(dev, 1, th) {
			t.Fatalf("ObservedAfter(page 1, %d) on a page nothing loads", th)
		}
	}
	// Every CTA stores to both pages: a run that dirtied nothing is told
	// to check both.
	for cta := 0; cta < numCTAs; cta++ {
		got := ck.AppendTouched(dev, cta, nil)
		if slices.Sort(got); !slices.Equal(got, []int32{0, 1}) {
			t.Fatalf("AppendTouched(clean device, %d) = %v, want [0 1]", cta, got)
		}
	}
	if ck.SummaryBytes() < 2*gpusim.PageSize {
		t.Fatalf("summaries of two loaded or stored pages report %d bytes", ck.SummaryBytes())
	}
}

// TestCheckpointSingleCTAFinal: a 1-CTA grid's store holds one snapshot to
// resume from, the pristine image, and its final image is the golden state
// at boundary NumCTAs, so Converged is defined there: true after a golden
// replay, false once an output page differs.
func TestCheckpointSingleCTAFinal(t *testing.T) {
	prog, init := chainSetup(t)
	launch := func() *gpusim.Launch {
		l := chainLaunch(prog)
		l.Grid.X = 1
		return l
	}
	golden := init.Clone()
	rec := gpusim.NewCheckpointRecorder(init, golden, 1, 0)
	if res, err := gpusim.Execute(golden, launch()); err != nil || res.Trap != nil {
		t.Fatalf("golden run: %v %v", err, res)
	}
	ck := rec.Finish()
	if ck.Count() != 1 || ck.NumCTAs() != 1 {
		t.Fatalf("1-CTA store holds %d snapshots over %d CTAs", ck.Count(), ck.NumCTAs())
	}
	snap, first := ck.SnapshotFor(0)
	dev := init.Clone()
	dev.ResetFrom(snap)
	l := launch()
	l.FirstCTA = first
	if _, err := gpusim.Execute(dev, l); err != nil {
		t.Fatal(err)
	}
	if !ck.Converged(dev, ck.NumCTAs()) {
		t.Fatal("golden replay does not converge at the final boundary")
	}
	dev.WriteWords(gpusim.PageSize, []uint32{0xDEAD}) // out[0]
	if ck.Converged(dev, ck.NumCTAs()) {
		t.Fatal("a changed output page converges at the final boundary")
	}
}

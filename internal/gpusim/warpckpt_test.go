package gpusim_test

import (
	"bytes"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/ptx"
)

// TestSnapshotForBoundaries pins the boundary-store lookup semantics: the
// store holds one snapshot per CTA, CTA 0 resumes from the pristine image,
// and every CTA resumes from its own boundary, whose snapshot equals an
// independent prefix execution.
func TestSnapshotForBoundaries(t *testing.T) {
	prog, init := chainSetup(t)
	const numCTAs = 6
	golden := init.Clone()
	rec := gpusim.NewCheckpointRecorder(init, golden, numCTAs, 0)
	if _, err := gpusim.Execute(golden, chainLaunch(prog)); err != nil {
		t.Fatal(err)
	}
	ck := rec.Finish()
	if ck.Count() != numCTAs {
		t.Fatalf("%d snapshots, want %d", ck.Count(), numCTAs)
	}
	if snap, _ := ck.SnapshotFor(0); snap != init {
		t.Fatal("CTA 0 does not resume from the pristine image")
	}
	for cta := 0; cta < numCTAs; cta++ {
		snap, b := ck.SnapshotFor(cta)
		if b != cta {
			t.Fatalf("SnapshotFor(%d) boundary %d", cta, b)
		}
		ref := init.Clone()
		if cta > 0 {
			pl := chainLaunch(prog)
			pl.AfterCTA = func(c int, _ bool) bool { return c == cta-1 }
			if _, err := gpusim.Execute(ref, pl); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(snap.Bytes(), ref.Bytes()) {
			t.Fatalf("snapshot at boundary %d differs from the prefix run", cta)
		}
	}
}

// TestWarpCheckpointResume is the unit-level soundness property of intra-CTA
// snapshots: restoring any retained snapshot (boundary state + page delta +
// materialized CTA state) and resuming the launch from it reproduces the
// uninterrupted golden run bit-for-bit, under both schedulers.
func TestWarpCheckpointResume(t *testing.T) {
	prog, init := chainSetup(t)
	const numCTAs, tpc = 6, 4
	for _, warp := range []int{0, 4} {
		golden := init.Clone()
		rec := gpusim.NewCheckpointRecorder(init, golden, numCTAs, 2)
		l := chainLaunch(prog)
		l.WarpSize = warp
		res, err := gpusim.Execute(golden, l)
		if err != nil {
			t.Fatal(err)
		}
		if res.Trap != nil {
			t.Fatalf("golden trap: %v", res.Trap)
		}
		ck := rec.Finish()
		wck := ck.Warp()
		want := golden.Bytes()

		if wck == nil || wck.Count() == 0 || wck.Bytes() <= 0 {
			t.Fatalf("warp %d: no intra-CTA snapshots captured", warp)
		}

		for cta := 0; cta < numCTAs; cta++ {
			for ord := 0; ord < wck.PerCTA(cta); ord++ {
				ws := wck.Snapshot(cta, ord)
				if ws.CTA() != cta || ws.Retired() <= 0 {
					t.Fatalf("snapshot %d/%d reports CTA %d, retired %d",
						cta, ord, ws.CTA(), ws.Retired())
				}
				// Serial captures follow every second retired instruction
				// and none is decimated away: every mid-CTA point is tested.
				if warp == 0 && ws.Retired() != int64(2*(ord+1)) {
					t.Fatalf("snapshot %d/%d at retired %d, want %d",
						cta, ord, ws.Retired(), 2*(ord+1))
				}
				snap, _ := ck.SnapshotFor(cta)
				dev := init.Clone()
				dev.ResetFrom(snap)
				ws.RestorePages(dev)
				rl := chainLaunch(prog)
				rl.WarpSize = warp
				rl.FirstCTA = cta
				rl.Resume = ws
				tres, err := gpusim.Execute(dev, rl)
				if err != nil {
					t.Fatal(err)
				}
				if tres.Trap != nil {
					t.Fatalf("resume %d/%d trap: %v", cta, ord, tres.Trap)
				}
				if tres.CTAsExecuted != numCTAs-cta {
					t.Fatalf("resume %d/%d executed %d CTAs, want %d",
						cta, ord, tres.CTAsExecuted, numCTAs-cta)
				}
				if !bytes.Equal(dev.Bytes(), want) {
					t.Fatalf("warp %d: resume from snapshot %d/%d diverges from golden",
						warp, cta, ord)
				}
				// dynCount continuity: resumed threads report their full
				// golden iCnt (the snapshot carries the prefix count, so
				// injection timing and the watchdog see full-run indices),
				// and the snapshot's count never exceeds it.
				for local := 0; local < tpc; local++ {
					th := cta*tpc + local
					if tres.ThreadICnt[th] != res.ThreadICnt[th] {
						t.Fatalf("resume %d/%d thread %d: iCnt %d, golden %d",
							cta, ord, th, tres.ThreadICnt[th], res.ThreadICnt[th])
					}
					if ws.DynAt(local) > res.ThreadICnt[th] {
						t.Fatalf("snapshot %d/%d thread %d: dynAt %d beyond golden iCnt %d",
							cta, ord, th, ws.DynAt(local), res.ThreadICnt[th])
					}
				}
			}

			// Lookup semantics: a site before the first capture has no
			// snapshot; a site exactly at a capture's dynamic count
			// resumes at that count.
			if wck.PerCTA(cta) > 0 {
				if got := wck.OrdinalBefore(cta, 0, 0); got != -1 {
					t.Fatalf("OrdinalBefore(%d, 0, 0) = %d, want -1", cta, got)
				}
				for ord := 0; ord < wck.PerCTA(cta); ord++ {
					ws := wck.Snapshot(cta, ord)
					for local := 0; local < tpc; local++ {
						got := wck.SnapshotBefore(cta, local, ws.DynAt(local))
						if got == nil || got.DynAt(local) != ws.DynAt(local) {
							t.Fatalf("SnapshotBefore(%d, %d, %d) does not land on a capture at that count",
								cta, local, ws.DynAt(local))
						}
					}
				}
			}
		}
	}
}

// TestExecuteResumeValidation: a Resume snapshot that does not match the
// launch (wrong CTA, wrong geometry, a program of another register
// footprint) — or a fast-forwarded launch whose skipped prefix would
// swallow the injection — is a launch error, not silent corruption.
func TestExecuteResumeValidation(t *testing.T) {
	prog, init := chainSetup(t)
	golden := init.Clone()
	rec := gpusim.NewCheckpointRecorder(init, golden, 6, 2)
	if _, err := gpusim.Execute(golden, chainLaunch(prog)); err != nil {
		t.Fatal(err)
	}
	ws := rec.Finish().Warp().Snapshot(2, 0)

	// FirstCTA disagrees with the snapshot's CTA.
	bad := chainLaunch(prog)
	bad.FirstCTA = 1
	bad.Resume = ws
	if _, err := gpusim.Execute(init.Clone(), bad); err == nil {
		t.Fatal("Resume with mismatched FirstCTA accepted")
	}

	// Geometry disagrees with the snapshot's thread count.
	bad = chainLaunch(prog)
	bad.Block = gpusim.Dim3{X: 8, Y: 1, Z: 1}
	bad.FirstCTA = 2
	bad.Resume = ws
	if _, err := gpusim.Execute(init.Clone(), bad); err == nil {
		t.Fatal("Resume with mismatched block geometry accepted")
	}

	// The launch's program names ten registers, the recorded one seven: the
	// snapshot's saved registers do not fit its live threads.
	bad = chainLaunch(ptx.MustAssemble("wide", `
		cvt.u32.u16 $r9, %tid.x
		exit
	`))
	bad.FirstCTA = 2
	bad.Resume = ws
	if _, err := gpusim.Execute(init.Clone(), bad); err == nil {
		t.Fatal("Resume under a program of another register footprint accepted")
	}

	// The injection lies in a CTA the fast-forwarded launch skips: the
	// fault could never fire, so the launch is rejected (for persistent and
	// transient kinds alike).
	for _, kind := range []gpusim.InjectKind{gpusim.InjectStuckActiveMask, gpusim.InjectDestValue} {
		bad = chainLaunch(prog)
		bad.FirstCTA = 2
		bad.Inject = &gpusim.Injection{Thread: 0, DynInst: 1, Kind: kind}
		if _, err := gpusim.Execute(init.Clone(), bad); err == nil {
			t.Fatalf("%v injection in the skipped CTA prefix accepted", kind)
		}
	}

	// The Resume snapshot postdates the injection's activation point: the
	// injected thread already retired past DynInst at capture.
	if ws.DynAt(0) == 0 {
		t.Fatalf("snapshot 2/0 captured thread 0 at dyn 0; want progress for this test")
	}
	bad = chainLaunch(prog)
	bad.FirstCTA = 2
	bad.Resume = ws
	bad.Inject = &gpusim.Injection{Thread: 2 * 4, DynInst: ws.DynAt(0) - 1, Kind: gpusim.InjectStuckBarrier}
	if _, err := gpusim.Execute(init.Clone(), bad); err == nil {
		t.Fatal("Resume snapshot past the injection's activation point accepted")
	}

	// Positive control: the same snapshot with the injection at exactly the
	// captured count is a legal armed-fault resume.
	ok := chainLaunch(prog)
	ok.FirstCTA = 2
	ok.Resume = ws
	ok.Inject = &gpusim.Injection{Thread: 2 * 4, DynInst: ws.DynAt(0), Kind: gpusim.InjectStuckBarrier}
	dev := init.Clone()
	ws.RestorePages(dev)
	if _, err := gpusim.Execute(dev, ok); err != nil {
		t.Fatalf("armed-fault resume at the capture point rejected: %v", err)
	}
}

// TestWarpSnapshotCapturesSchedulerLedger: intra-CTA snapshots are
// scheduler-complete (DESIGN.md §3.11). On a kernel that parks threads at a
// non-zero barrier id while others have already exited, some capture must
// witness a parked thread with its barrier id and an exited thread — and
// resuming from every snapshot must still reproduce the golden run
// bit-for-bit, proving the captured ledger is also restored.
func TestWarpSnapshotCapturesSchedulerLedger(t *testing.T) {
	prog := ptx.MustAssemble("ledger", `
		cvt.u32.u16 $r0, %tid.x
		set.lt.u32.u32 $p0/$o127, $r0, 4
		@$p0.eq bra lexit          // threads 4..7 exit before the barrier
		bar.sync 0x00000001
		shl.u32 $r3, $r0, 0x00000002
		mov.u32 $r1, 7
		st.global.u32 [$r3], $r1
		lexit: exit
	`)
	init := gpusim.NewDevice(64)
	ledgerLaunch := func() *gpusim.Launch {
		return &gpusim.Launch{
			Prog:  prog,
			Grid:  gpusim.Dim3{X: 1, Y: 1, Z: 1},
			Block: gpusim.Dim3{X: 8, Y: 1, Z: 1},
		}
	}
	golden := init.Clone()
	rec := gpusim.NewCheckpointRecorder(init, golden, 1, 1)
	res, err := gpusim.Execute(golden, ledgerLaunch())
	if err != nil {
		t.Fatal(err)
	}
	if res.Trap != nil {
		t.Fatalf("golden trap: %v", res.Trap)
	}
	wck := rec.Finish().Warp()
	want := golden.Bytes()

	sawParked, sawExited := false, false
	for ord := 0; ord < wck.PerCTA(0); ord++ {
		ws := wck.Snapshot(0, ord)
		if ws.Retired() != int64(ord+1) {
			t.Fatalf("snapshot %d at retired %d: a capture was dropped", ord, ws.Retired())
		}
		for th := 0; th < 8; th++ {
			if ws.Waiting(th) {
				if id := ws.BarrierID(th); id != 1 {
					t.Fatalf("snapshot %d: thread %d parked at barrier id %d, want 1", ord, th, id)
				}
				sawParked = true
			}
			if th >= 4 && ws.Done(th) {
				sawExited = true
			}
		}

		dev := init.Clone()
		ws.RestorePages(dev)
		rl := ledgerLaunch()
		rl.FirstCTA = 0
		rl.Resume = ws
		rres, err := gpusim.Execute(dev, rl)
		if err != nil {
			t.Fatal(err)
		}
		if rres.Trap != nil {
			t.Fatalf("resume from snapshot %d trapped: %v", ord, rres.Trap)
		}
		if !bytes.Equal(dev.Bytes(), want) {
			t.Fatalf("resume from snapshot %d diverges from golden", ord)
		}
	}
	if !sawParked {
		t.Fatal("no snapshot captured a thread parked at the barrier")
	}
	if !sawExited {
		t.Fatal("no snapshot captured an exited thread alongside live ones")
	}
}

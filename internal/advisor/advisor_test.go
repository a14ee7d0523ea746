package advisor_test

import (
	"math"
	"testing"

	"repro/internal/advisor"
	"repro/internal/fault"
	"repro/internal/ptx"
	"repro/internal/stats"
	"repro/internal/trace"
)

// fixtureInput hand-builds a campaign whose advice is computable on paper:
// a three-instruction program, two single-thread CTAs, and four outcomes.
//
//	dynamic counts: pc0 ×2, pc1 ×1, pc2 ×2 (total 5)
//	records:        (t0,pc0,SDC) (t0,pc1,Masked) (t1,pc0,SDC) (t1,pc2,Crash)
//
// So: overall masked 25% / sdc 50% / due 25%; both threads are 50% SDC;
// pc0 is 100% SDC with modeled cost 2*2/5 = 80%, pc1 costs 40%, pc2 80%.
func fixtureInput(t *testing.T) *advisor.Input {
	t.Helper()
	prog, err := ptx.Assemble("fx", `
		add.u32 $r0, $r0, 0x00000001
		mul.lo.u32 $r1, $r0, $r0
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	prof := &trace.Profile{
		Prog: prog,
		Threads: []trace.ThreadProfile{
			{ICnt: 3, PCs: []uint16{0, 1, 2}},
			{ICnt: 2, PCs: []uint16{0, 2}},
		},
		ThreadsPerCTA: 1,
	}
	return &advisor.Input{
		Kernel: "fx",
		Scale:  "small",
		Seed:   1,
		Model:  fault.ModelDestValue,
		Sites:  4,
		Records: []advisor.SiteRecord{
			{Thread: 0, DynInst: 0, PC: 0, Outcome: fault.SDC, Weight: 1},
			{Thread: 0, DynInst: 1, PC: 1, Outcome: fault.Masked, Weight: 1},
			{Thread: 1, DynInst: 0, PC: 0, Outcome: fault.SDC, Weight: 1},
			{Thread: 1, DynInst: 1, PC: 2, Outcome: fault.Crash, Weight: 1},
		},
		Prof: prof,
	}
}

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestAnalyzeFixture pins the exact hand-computed ranking and frontier.
func TestAnalyzeFixture(t *testing.T) {
	adv, err := advisor.Analyze(fixtureInput(t), advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(adv.Profile.MaskedPct, 25) || !almost(adv.Profile.SDCPct, 50) || !almost(adv.Profile.OtherPct, 25) {
		t.Fatalf("profile %+v, want 25/50/25", adv.Profile)
	}
	if !adv.DMRSound {
		t.Fatal("dest-value must be DMR-sound")
	}

	// Threads tie at 50% SDC; the tie breaks by ascending id, and thread k
	// sits in CTA k (one thread per CTA).
	if len(adv.Threads) != 2 {
		t.Fatalf("got %d thread ranks, want 2", len(adv.Threads))
	}
	for i, tr := range adv.Threads {
		if tr.Thread != i || tr.CTA != i {
			t.Fatalf("rank %d is thread %d cta %d, want %d/%d", i, tr.Thread, tr.CTA, i, i)
		}
		if tr.Samples != 2 || !almost(tr.SDCPct, 50) || !almost(tr.Score, 50) {
			t.Fatalf("thread %d stats %+v, want 2 samples at 50%% SDC", tr.Thread, tr.RankStats)
		}
	}
	// Uniform unit weights: the Kish effective sample size equals the raw
	// count exactly, so the Wilson bounds match the count-based interval
	// (1 of 2) bit for bit.
	if adv.Threads[0].EffectiveN != 2 {
		t.Fatalf("uniform-weight effective n = %v, want exactly 2", adv.Threads[0].EffectiveN)
	}
	lo, hi := stats.WilsonInterval(1, 2, 0.95)
	if !almost(adv.Threads[0].SDCLoPct, lo*100) || !almost(adv.Threads[0].SDCHiPct, hi*100) {
		t.Fatalf("thread CI [%v,%v], want [%v,%v]",
			adv.Threads[0].SDCLoPct, adv.Threads[0].SDCHiPct, lo*100, hi*100)
	}

	// Instruction ranking: pc0 (100% SDC) first, then pc1/pc2 tied at 0.
	if len(adv.Instructions) != 3 {
		t.Fatalf("got %d instruction ranks, want 3", len(adv.Instructions))
	}
	wantPC := []int{0, 1, 2}
	wantScore := []float64{100, 0, 0}
	wantDyn := []int64{2, 1, 2}
	wantCost := []float64{80, 40, 80}
	for i, in := range adv.Instructions {
		if in.PC != wantPC[i] || !almost(in.Score, wantScore[i]) {
			t.Fatalf("rank %d is pc%d score %v, want pc%d score %v", i, in.PC, in.Score, wantPC[i], wantScore[i])
		}
		if in.DynCount != wantDyn[i] || !almost(in.OverheadPct, wantCost[i]) {
			t.Fatalf("pc%d dyn/cost %d/%v, want %d/%v", in.PC, in.DynCount, in.OverheadPct, wantDyn[i], wantCost[i])
		}
		if in.Instr == "" {
			t.Fatalf("pc%d has no disassembly", in.PC)
		}
	}

	// Frontier, greedy by SDC mass per cost: pc0 (2/80), then pc1, pc2.
	wantFrontier := []struct {
		protected int
		overhead  float64
		sdc       float64
		detected  float64
	}{
		{0, 0, 50, 0},
		{1, 80, 0, 50},
		{2, 120, 0, 50},
		{3, 200, 0, 50},
	}
	if len(adv.Frontier) != len(wantFrontier) {
		t.Fatalf("got %d frontier points, want %d", len(adv.Frontier), len(wantFrontier))
	}
	for i, p := range adv.Frontier {
		w := wantFrontier[i]
		if p.Protected != w.protected || !almost(p.OverheadPct, w.overhead) ||
			!almost(p.SDCPct, w.sdc) || !almost(p.DetectedPct, w.detected) {
			t.Fatalf("frontier[%d] = %+v, want %+v", i, p, w)
		}
		if p.BudgetPct != nil {
			t.Fatalf("frontier[%d] carries a budget on the default sweep", i)
		}
	}
	if adv.Frontier[1].PCs[0] != 0 {
		t.Fatalf("first protected pc %d, want 0", adv.Frontier[1].PCs[0])
	}
}

// TestAnalyzeWeightedESS pins the Kish-corrected Wilson bounds on a
// weighted campaign where the effective sample size differs from the raw
// record count. Thread 0 carries three records with weights {4, 1, 1}:
// ESS = (Σw)²/Σw² = 36/18 = 2, not 3, and the interval must be the Wilson
// interval on the weighted SDC proportion (4/6) at 2 effective trials —
// strictly wider than the raw-count interval the old code computed.
func TestAnalyzeWeightedESS(t *testing.T) {
	prog, err := ptx.Assemble("wess", `
		add.u32 $r0, $r0, 0x00000001
		mul.lo.u32 $r1, $r0, $r0
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	prof := &trace.Profile{
		Prog: prog,
		Threads: []trace.ThreadProfile{
			{ICnt: 3, PCs: []uint16{0, 1, 2}},
		},
		ThreadsPerCTA: 1,
	}
	in := &advisor.Input{
		Kernel: "wess",
		Seed:   1,
		Model:  fault.ModelDestValue,
		Sites:  3,
		Records: []advisor.SiteRecord{
			{Thread: 0, DynInst: 0, PC: 0, Outcome: fault.SDC, Weight: 4},
			{Thread: 0, DynInst: 1, PC: 1, Outcome: fault.Masked, Weight: 1},
			{Thread: 0, DynInst: 2, PC: 2, Outcome: fault.Masked, Weight: 1},
		},
		Prof: prof,
	}
	adv, err := advisor.Analyze(in, advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(adv.Threads) != 1 {
		t.Fatalf("got %d thread ranks, want 1", len(adv.Threads))
	}
	tr := adv.Threads[0]
	if tr.Samples != 3 {
		t.Fatalf("samples = %d, want 3", tr.Samples)
	}
	if tr.EffectiveN != 2 {
		t.Fatalf("effective n = %v, want exactly 2 (ESS of weights {4,1,1})", tr.EffectiveN)
	}
	// Rates remain the weighted shares.
	if !almost(tr.SDCPct, 400.0/6) || !almost(tr.MaskedPct, 200.0/6) {
		t.Fatalf("rates %+v, want sdc 66.67%% masked 33.33%%", tr.RankStats)
	}
	// Bounds come from the weighted proportion at the effective sample
	// size, bit for bit.
	lo, hi := stats.WilsonProportionInterval(4.0/6.0, 2, 0.95)
	if tr.SDCLoPct != lo*100 || tr.SDCHiPct != hi*100 {
		t.Fatalf("CI [%v,%v], want [%v,%v]", tr.SDCLoPct, tr.SDCHiPct, lo*100, hi*100)
	}
	// And they are wider than the raw-count interval would have been —
	// the bug this pins: 1-of-3 raw counts understate the uncertainty of
	// a 4-1-1 weighted group.
	rawLo, rawHi := stats.WilsonInterval(1, 3, 0.95)
	if hi-lo <= rawHi-rawLo {
		t.Fatalf("ESS interval [%v,%v] not wider than raw-count [%v,%v]", lo, hi, rawLo, rawHi)
	}

	// The single-record pc0 group is one observation either way: ESS of a
	// lone weight is exactly 1 regardless of its magnitude.
	for _, ir := range adv.Instructions {
		if ir.PC == 0 && ir.EffectiveN != 1 {
			t.Fatalf("pc0 effective n = %v, want 1", ir.EffectiveN)
		}
	}
}

// TestAnalyzeBudgets pins the budget sweep: each budget gets the largest
// greedy prefix whose modeled overhead fits.
func TestAnalyzeBudgets(t *testing.T) {
	adv, err := advisor.Analyze(fixtureInput(t), advisor.Options{Budgets: []float64{0, 50, 100, 200}})
	if err != nil {
		t.Fatal(err)
	}
	wantProtected := []int{0, 0, 1, 3}
	if len(adv.Frontier) != len(wantProtected) {
		t.Fatalf("got %d frontier points, want %d", len(adv.Frontier), len(wantProtected))
	}
	for i, p := range adv.Frontier {
		if p.BudgetPct == nil {
			t.Fatalf("frontier[%d] lost its budget", i)
		}
		if p.Protected != wantProtected[i] {
			t.Fatalf("budget %v protects %d instructions, want %d", *p.BudgetPct, p.Protected, wantProtected[i])
		}
		if p.OverheadPct > *p.BudgetPct {
			t.Fatalf("budget %v exceeded: overhead %v", *p.BudgetPct, p.OverheadPct)
		}
	}
}

// TestFrontierMonotone is the property test: on a randomized campaign,
// more budget never lowers resilience (SDC never rises, detection never
// falls) — along the default per-prefix sweep and across a budget sweep.
func TestFrontierMonotone(t *testing.T) {
	prog, err := ptx.Assemble("mono", `
		add.u32 $r0, $r0, 0x00000001
		mul.lo.u32 $r1, $r0, $r0
		sub.u32 $r2, $r1, $r0
		and.b32 $r3, $r2, $r1
		exit
	`)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42).Split("monotone")
	const nThreads, nPCs = 8, 5
	prof := &trace.Profile{Prog: prog, ThreadsPerCTA: 4}
	for i := 0; i < nThreads; i++ {
		n := 3 + rng.Intn(8)
		tp := trace.ThreadProfile{ICnt: int64(n)}
		for k := 0; k < n; k++ {
			tp.PCs = append(tp.PCs, uint16(rng.Intn(nPCs)))
		}
		prof.Threads = append(prof.Threads, tp)
	}
	in := &advisor.Input{
		Kernel: "mono", Seed: 42, Model: fault.ModelDestValue, Prof: prof,
	}
	outcomes := []fault.Outcome{fault.Masked, fault.SDC, fault.Crash, fault.Hang}
	for i := 0; i < 200; i++ {
		th := rng.Intn(nThreads)
		dyn := rng.Int63n(int64(len(prof.Threads[th].PCs)))
		in.Records = append(in.Records, advisor.SiteRecord{
			Thread:  th,
			DynInst: dyn,
			PC:      int(prof.Threads[th].PCs[dyn]),
			Outcome: outcomes[rng.Intn(4)],
			Weight:  1 + float64(rng.Intn(3)),
		})
	}
	in.Sites = len(in.Records)

	adv, err := advisor.Analyze(in, advisor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(adv.Frontier); i++ {
		prev, cur := adv.Frontier[i-1], adv.Frontier[i]
		if cur.OverheadPct < prev.OverheadPct-1e-9 {
			t.Fatalf("overhead fell between prefixes %d and %d", i-1, i)
		}
		if cur.SDCPct > prev.SDCPct+1e-9 {
			t.Fatalf("SDC rose with more protection: %v -> %v", prev.SDCPct, cur.SDCPct)
		}
		if cur.DetectedPct < prev.DetectedPct-1e-9 {
			t.Fatalf("detection fell with more protection: %v -> %v", prev.DetectedPct, cur.DetectedPct)
		}
	}

	budgets := []float64{0, 5, 10, 20, 40, 80, 160, 320}
	adv, err = advisor.Analyze(in, advisor.Options{Budgets: budgets})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(adv.Frontier); i++ {
		prev, cur := adv.Frontier[i-1], adv.Frontier[i]
		if cur.SDCPct > prev.SDCPct+1e-9 {
			t.Fatalf("SDC rose with a larger budget: %v -> %v", prev.SDCPct, cur.SDCPct)
		}
		if cur.DetectedPct < prev.DetectedPct-1e-9 {
			t.Fatalf("detection fell with a larger budget: %v -> %v", prev.DetectedPct, cur.DetectedPct)
		}
	}
}

// TestOptionsValidation rejects unusable options loudly.
func TestOptionsValidation(t *testing.T) {
	in := fixtureInput(t)
	if _, err := advisor.Analyze(in, advisor.Options{RankBy: "chaos"}); err == nil {
		t.Fatal("want error for unknown rank-by")
	}
	if _, err := advisor.Analyze(in, advisor.Options{Confidence: 1.5}); err == nil {
		t.Fatal("want error for confidence out of range")
	}
	if _, err := advisor.Analyze(in, advisor.Options{Budgets: []float64{-1}}); err == nil {
		t.Fatal("want error for negative budget")
	}
	if _, err := advisor.ParseBudgets("5,x"); err == nil {
		t.Fatal("want error for malformed budget list")
	}
	bs, err := advisor.ParseBudgets(" 5, 10 ,2.5 ")
	if err != nil || len(bs) != 3 {
		t.Fatalf("ParseBudgets = %v, %v", bs, err)
	}
}

// TestRankBy checks the alternative criteria reorder the ranking.
func TestRankBy(t *testing.T) {
	in := fixtureInput(t)
	adv, err := advisor.Analyze(in, advisor.Options{RankBy: advisor.RankDUE})
	if err != nil {
		t.Fatal(err)
	}
	// Under DUE ranking pc2 (the crash) leads.
	if adv.Instructions[0].PC != 2 || !almost(adv.Instructions[0].Score, 100) {
		t.Fatalf("DUE ranking leads with pc%d score %v, want pc2 score 100",
			adv.Instructions[0].PC, adv.Instructions[0].Score)
	}
	adv, err = advisor.Analyze(in, advisor.Options{RankBy: advisor.RankSeverity})
	if err != nil {
		t.Fatal(err)
	}
	// Severity = sdc + due/4: pc0 scores 100, pc2 scores 25, pc1 scores 0.
	if adv.Instructions[0].PC != 0 || adv.Instructions[1].PC != 2 {
		t.Fatalf("severity ranking = pc%d, pc%d, want pc0, pc2",
			adv.Instructions[0].PC, adv.Instructions[1].PC)
	}
	if !almost(adv.Instructions[1].Score, 25) {
		t.Fatalf("severity score for pc2 = %v, want 25", adv.Instructions[1].Score)
	}
}

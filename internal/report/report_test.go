package report_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/kernels"
	"repro/internal/report"
)

func TestProfileRoundTrip(t *testing.T) {
	var d fault.Dist
	d.Add(fault.Masked, 6)
	d.Add(fault.SDC, 3)
	d.Add(fault.Crash, 0.5)
	d.Add(fault.Hang, 0.5)
	p := report.NewProfile(d)
	if p.MaskedPct != 60 || p.SDCPct != 30 || p.OtherPct != 10 {
		t.Fatalf("profile: %+v", p)
	}
	if p.CrashPct != 5 || p.HangPct != 5 {
		t.Fatalf("other split: %+v", p)
	}
	if p.Experiments != 4 || p.Weight != 10 {
		t.Fatalf("counts: %+v", p)
	}

	var buf bytes.Buffer
	if err := report.Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	var back report.Profile
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back != p {
		t.Fatalf("round trip changed: %+v vs %+v", back, p)
	}
}

func TestPlanAndProfileDocuments(t *testing.T) {
	spec, _ := kernels.ByName("Gaussian K1")
	inst, err := spec.Build(kernels.ScaleSmall)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Target.Prepare(); err != nil {
		t.Fatal(err)
	}
	plan, err := core.BuildPlan(inst.Target, core.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	pd := report.NewPlan(plan)
	if pd.Kernel != "Gaussian K1" || pd.Sites != len(plan.Sites) {
		t.Fatalf("plan doc: %+v", pd)
	}
	if pd.Stages.Exhaustive != plan.Stages.Exhaustive || pd.Reduction != plan.Reduction() {
		t.Fatalf("plan stages: %+v", pd)
	}
	if len(pd.ThreadGroups) != len(plan.ThreadGroups) {
		t.Fatalf("thread groups: %d vs %d", len(pd.ThreadGroups), len(plan.ThreadGroups))
	}

	kp := report.NewKernelProfile("Gaussian K1", inst.Target.Profile())
	if kp.Threads != inst.Target.Threads() || kp.FaultSites <= 0 {
		t.Fatalf("kernel profile: %+v", kp)
	}
	if kp.MinICnt > kp.MaxICnt {
		t.Fatalf("icnt bounds: %+v", kp)
	}

	est, err := plan.Estimate(fault.CampaignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	doc := report.NewEstimate(plan, est, nil)
	if doc.Baseline != nil || doc.MaxDeltaPP != nil {
		t.Fatal("baseline fields should be omitted")
	}
	if doc.Campaign != nil {
		t.Fatal("campaign stats should be omitted")
	}
	var base fault.Dist
	base.Add(fault.Masked, 1)
	stats := fault.CampaignStats{Runs: 7, Wall: time.Millisecond, PagesCopied: 3,
		DevicesCreated: 2, CTAsSkipped: 5, EarlyExits: 1}
	c := report.NewCampaign(stats).WithPrepare(fault.PrepareStats{
		Source: fault.PreparedMiss, Checkpoints: 3, CheckpointBytes: 4096})
	doc = report.NewEstimate(plan, est, &base)
	doc.Campaign = &c
	if doc.Baseline == nil || doc.MaxDeltaPP == nil {
		t.Fatal("baseline fields missing")
	}
	if doc.Campaign == nil || doc.Campaign.Runs != 7 || doc.Campaign.WallMS != 1 {
		t.Fatalf("campaign stats: %+v", doc.Campaign)
	}
	if doc.Campaign.DevicesCreated != 2 || doc.Campaign.CTAsSkipped != 5 ||
		doc.Campaign.EarlyExits != 1 || doc.Campaign.Checkpoints != 3 ||
		doc.Campaign.CheckpointBytes != 4096 || doc.Campaign.CacheMisses != 1 ||
		doc.Campaign.CacheHits != 0 || doc.Campaign.PreparedShared != 0 {
		t.Fatalf("fast-forward stats: %+v", doc.Campaign)
	}

	var buf bytes.Buffer
	if err := report.Write(&buf, doc); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON emitted")
	}
}

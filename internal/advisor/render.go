package advisor

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/textplot"
)

// Render writes the human-readable advice: a campaign header, the top
// entries of both rankings, the frontier curve, and the recommended
// protection set. top bounds how many ranking rows print (<=0 means all);
// width is the plot width in characters. The JSON document (report.Write
// of the same Advice) always carries every entry — Render only trims the
// terminal view.
func Render(w io.Writer, adv *report.Advice, top, width int) {
	fmt.Fprintf(w, "advice: %s rank-by=%s confidence=%g\n", adv.Fingerprint, adv.RankBy, adv.Confidence)
	fmt.Fprintf(w, "overall: masked %.2f%%  sdc %.2f%%  other %.2f%%  (%d experiments)\n",
		adv.Profile.MaskedPct, adv.Profile.SDCPct, adv.Profile.OtherPct, adv.Profile.Experiments)
	if !adv.DMRSound {
		fmt.Fprintf(w, "note: duplicate-and-compare is not a sound detector for model %s; the frontier is an upper bound (DESIGN.md §3.10)\n", adv.Model)
	}

	fmt.Fprintf(w, "\nmost vulnerable threads (of %d sampled):\n", len(adv.Threads))
	fmt.Fprintf(w, "  %6s %4s %8s %8s %8s %8s %19s\n",
		"thread", "cta", "samples", "sdc%", "due%", "score", confLabel(adv))
	for i, t := range adv.Threads {
		if top > 0 && i >= top {
			fmt.Fprintf(w, "  ... %d more\n", len(adv.Threads)-top)
			break
		}
		fmt.Fprintf(w, "  %6d %4d %8d %8.2f %8.2f %8.2f   [%6.2f, %6.2f]\n",
			t.Thread, t.CTA, t.Samples, t.SDCPct, t.DUEPct, t.Score, t.SDCLoPct, t.SDCHiPct)
	}

	fmt.Fprintf(w, "\nmost vulnerable instructions (of %d sampled):\n", len(adv.Instructions))
	fmt.Fprintf(w, "  %4s %8s %8s %8s %8s %19s  %s\n",
		"pc", "samples", "sdc%", "score", "cost%", confLabel(adv), "instr")
	for i, in := range adv.Instructions {
		if top > 0 && i >= top {
			fmt.Fprintf(w, "  ... %d more\n", len(adv.Instructions)-top)
			break
		}
		fmt.Fprintf(w, "  %4d %8d %8.2f %8.2f %8.2f   [%6.2f, %6.2f]  %s\n",
			in.PC, in.Samples, in.SDCPct, in.Score, in.OverheadPct, in.SDCLoPct, in.SDCHiPct, in.Instr)
	}

	if len(adv.Frontier) > 0 {
		fmt.Fprintf(w, "\nprotection frontier (simulated duplicate-and-compare):\n")
		xs := make([]float64, len(adv.Frontier))
		ys := make([]float64, len(adv.Frontier))
		for i, p := range adv.Frontier {
			xs[i], ys[i] = p.OverheadPct, p.SDCPct
		}
		textplot.Curve(w, xs, ys, width, 10, "overhead %", "sdc %")
		last := adv.Frontier[len(adv.Frontier)-1]
		fmt.Fprintf(w, "\nprotect %d instruction(s) %v: sdc %.2f%% -> %.2f%% at +%.2f%% dynamic instructions\n",
			last.Protected, last.PCs, adv.Profile.SDCPct, last.SDCPct, last.OverheadPct)
	}
}

// confLabel renders the confidence-interval column header.
func confLabel(adv *report.Advice) string {
	return fmt.Sprintf("sdc %g%% CI", adv.Confidence*100)
}

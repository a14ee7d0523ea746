// Command fsmerge recombines the outcome journals of a sharded injection
// campaign (fsprune -action campaign -shard i/n -journal ...) into the
// single-process result. It validates that every journal belongs to the same
// campaign (identical fingerprint up to the shard id), that shards are
// distinct and their site indices disjoint, and — unless -allow-partial —
// that all n shards are present and fully cover the site list.
//
// Usage:
//
//	fsmerge s0.journal s1.journal
//	fsmerge -json merged.json s0.journal s1.journal
//	fsmerge -allow-partial s0.journal
//
// Records are aggregated in site-index order, so the merged distribution is
// bit-identical to the unsharded campaign's. A partial merge names the
// shards it holds: one shard's journal merges to that shard's report, and
// a merge of several but not all shards has a summary but no -json
// document, since a report names one shard or the whole campaign.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/journal"
	"repro/internal/report"
)

func main() {
	jsonPath := flag.String("json", "", "also write the merged report as JSON to this file (- for stdout)")
	allowPartial := flag.Bool("allow-partial", false, "accept missing shards or incomplete shard journals")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: fsmerge [-json out.json] [-allow-partial] journal...")
		os.Exit(2)
	}

	fp, held, recs, err := journal.MergeShards(flag.Args(), *allowPartial)
	fatal(err)
	campaign := fp.String()
	switch {
	case len(held) == 1:
		fp.ShardIndex = held[0]
		campaign = fp.String()
	case len(held) < fp.ShardCount:
		shards := make([]string, len(held))
		for i, index := range held {
			shards[i] = strconv.Itoa(index)
		}
		if *jsonPath != "" {
			fmt.Fprintf(os.Stderr, "fsmerge: -json: the journals hold shards %s of %d, and a merged report names one shard or all of them\n",
				strings.Join(shards, ","), fp.ShardCount)
			os.Exit(2)
		}
		campaign = strings.TrimSuffix(campaign, fmt.Sprintf("shard=0/%d", fp.ShardCount)) +
			fmt.Sprintf("shards=%s/%d", strings.Join(shards, ","), fp.ShardCount)
	}

	// Records arrive sorted by site index; NewMerged aggregates in that
	// order, reproducing the engine's input-order float summation exactly.
	doc, err := report.NewMerged(fp, recs)
	fatal(err)
	dist, err := report.MergedDist(recs)
	fatal(err)

	summary := os.Stdout
	if *jsonPath == "-" {
		summary = os.Stderr // stdout holds the document alone
	}
	fmt.Fprintf(summary, "%s: merged %d shard journals\nsites: %d of %d completed",
		campaign, flag.NArg(), len(recs), fp.Sites)
	if doc.Quarantined > 0 {
		fmt.Fprintf(summary, " (%d quarantined)", doc.Quarantined)
	}
	fmt.Fprintf(summary, "\nprofile: %s\n", dist)

	switch *jsonPath {
	case "":
	case "-":
		fatal(report.Write(os.Stdout, doc))
	default:
		f, err := os.Create(*jsonPath)
		fatal(err)
		err = report.Write(f, doc)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		fatal(err)
		fmt.Printf("report written to %s\n", *jsonPath)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

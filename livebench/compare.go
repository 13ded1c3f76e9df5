package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json compare needs.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict is compare's judgement of one (metric, workload) pair.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// minPairs is the fewest paired runs a gain can be claimed on.
const minPairs = 10

// judge applies the rule for landing a change on the runs of one metric
// and workload. parent and change are paired by position; lowerBetter
// gives the metric's direction and bound the share of the parent's median
// by which it may worsen.
//
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them (ties count for neither side), and the medians differ in the
//     change's favour by more than the parent's own interquartile range.
//   - unresolved: the parent's spread (interquartile range over median)
//     is wider than the bound, unless every change run reads better than
//     every parent run.
//   - regressed: the change's median is worse than the parent's by more
//     than the bound.
//   - unchanged: anything else.
func judge(parent, change []float64, lowerBetter bool, bound float64) (v verdict, wins, pairs int) {
	better := func(c, p float64) bool {
		if lowerBetter {
			return c < p
		}
		return c > p
	}
	pairs = min(len(parent), len(change))
	for i := 0; i < pairs; i++ {
		if better(change[i], parent[i]) {
			wins++
		}
	}
	if len(parent) == 0 || len(change) == 0 {
		return unresolved, wins, pairs
	}
	pq1, pmed, pq3 := quartiles(parent)
	_, cmed, _ := quartiles(change)
	iqr := pq3 - pq1
	if pairs >= minPairs && 10*wins >= 9*pairs && better(cmed, pmed) && math.Abs(cmed-pmed) > iqr {
		return improved, wins, pairs
	}
	allBetter := true
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				allBetter = false
			}
		}
	}
	spread := iqr / math.Abs(pmed)
	if spread > bound && !allBetter {
		return unresolved, wins, pairs
	}
	worse := cmed - pmed
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound*math.Abs(pmed) {
		return regressed, wins, pairs
	}
	return unchanged, wins, pairs
}

// loadRecords reads every untraced run record under the given files or
// directories, grouped by workload and sorted by seed then file name so
// that runs of the same seed pair up across the two sides.
func loadRecords(paths []string) (map[string][]*record, error) {
	type named struct {
		file string
		rec  *record
	}
	var all []named
	for _, p := range paths {
		files := []string{p}
		if fi, err := os.Stat(p); err == nil && fi.IsDir() {
			matches, err := filepath.Glob(filepath.Join(p, "*.json"))
			if err != nil {
				return nil, err
			}
			files = matches
		}
		for _, f := range files {
			b, err := os.ReadFile(f)
			if err != nil {
				return nil, err
			}
			rec := new(record)
			if err := json.Unmarshal(b, rec); err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			if !rec.Trace {
				all = append(all, named{f, rec})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].rec.Seed != all[j].rec.Seed {
			return all[i].rec.Seed < all[j].rec.Seed
		}
		return all[i].file < all[j].file
	})
	out := map[string][]*record{}
	for _, n := range all {
		out[n.rec.Workload] = append(out[n.rec.Workload], n.rec)
	}
	return out, nil
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the metrics' directions and bounds")
	parentArg := fs.String("parent", "", "comma-separated run-record files or directories of the parent commit")
	changeArg := fs.String("change", "", "comma-separated run-record files or directories of the change")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentArg == "" || *changeArg == "" {
		fmt.Fprintln(os.Stderr, "compare: -parent and -change are required")
		return 2
	}
	raw, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", *benchPath+":", err)
		return 1
	}
	parent, err := loadRecords(strings.Split(*parentArg, ","))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	change, err := loadRecords(strings.Split(*changeArg, ","))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	var workloads []string
	for w := range parent {
		if _, ok := change[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	fmt.Printf("%-20s %-12s %-32s %-32s %8s %7s %s\n", "metric", "workload",
		"parent median [q1, q3]", "change median [q1, q3]", "delta", "won", "verdict")
	regressions := 0
	for _, m := range bf.EndToEnd {
		for _, w := range workloads {
			pv, cv := values(parent[w], m.Name), values(change[w], m.Name)
			v, wins, pairs := judge(pv, cv, m.Better == "lower", m.Bound)
			pq1, pmed, pq3 := quartiles(pv)
			cq1, cmed, cq3 := quartiles(cv)
			fmt.Printf("%-20s %-12s %-32s %-32s %+7.1f%% %3d/%-3d %s\n", m.Name, w,
				fmt.Sprintf("%.4g [%.4g, %.4g]", pmed, pq1, pq3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", cmed, cq1, cq3),
				(cmed/pmed-1)*100, wins, pairs, v)
			if v == regressed {
				regressions++
			}
		}
	}
	if regressions > 0 {
		return 3
	}
	return 0
}

func values(recs []*record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.EndToEnd[metric]; ok {
			out = append(out, v)
		}
	}
	return out
}

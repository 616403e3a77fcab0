package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// compareMain prints, per workload and end-to-end metric, both results'
// medians with quartiles and sample counts, the relative difference of b
// against base a, and a verdict against the metric's bound: regressed when
// b's median is worse than a's by more than the bound; unresolved when it
// is not but a's own rounds spread wider than the bound, unless every
// round of b reads better than every round of a; ok otherwise.
func compareMain(files []string, list string) error {
	if len(files) != 2 {
		return errors.New("usage: -compare a.json b.json")
	}
	sel, err := selectWorkloads(list)
	if err != nil {
		return err
	}
	a, err := readResults(files[0])
	if err != nil {
		return err
	}
	b, err := readResults(files[1])
	if err != nil {
		return err
	}
	fmt.Printf("base a = %s (commit %s, seed %d), b = %s (commit %s, seed %d)\n",
		files[0], a.Header.Commit, a.Header.Seed, files[1], b.Header.Commit, b.Header.Seed)
	regressed := 0
	for _, info := range sel {
		wa, wb := a.Workloads[info.name], b.Workloads[info.name]
		if wa == nil || wb == nil {
			continue
		}
		fmt.Printf("\n%s  ops a %d b %d  failed a %d b %d\n", info.name, wa.Samples, wb.Samples, wa.Failed, wb.Failed)
		if wa.Invariant != wb.Invariant {
			fmt.Printf("  invariant fingerprint differs: a %s, b %s\n", wa.Invariant, wb.Invariant)
			regressed++
		}
		if wa.Work != wb.Work {
			fmt.Printf("  work fingerprint differs: a %s, b %s (allowed between commits, not within one)\n", wa.Work, wb.Work)
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB {
				continue
			}
			verdict, rel := judge(d, ma.Rounds, mb.Rounds)
			if verdict == "regressed" {
				regressed++
			}
			qa1, qa3 := quartiles(ma.Rounds)
			qb1, qb3 := quartiles(mb.Rounds)
			fmt.Printf("  %-22s a %.6g [%.6g..%.6g] n=%d  b %.6g [%.6g..%.6g] n=%d  %s  %+.2f%% of a  bound %.1f%%  %s\n",
				d.Name, ma.Value, qa1, qa3, len(ma.Rounds), mb.Value, qb1, qb3, len(mb.Rounds), d.Unit, rel*100, d.Bound*100, verdict)
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}

// judge compares the rounds of b with the rounds of base a. rel is the
// relative difference of the medians, positive when b reads higher.
func judge(d metricDef, a, b []float64) (verdict string, rel float64) {
	ma, mb := median(a), median(b)
	rel = (mb - ma) / ma
	worse := rel
	if d.Better == higher {
		worse = -rel
	}
	if worse > d.Bound {
		return "regressed", rel
	}
	q1, q3 := quartiles(a)
	if (q3-q1)/ma > d.Bound && !allBetter(d, a, b) {
		return "unresolved", rel
	}
	return "ok", rel
}

// allBetter reports whether every value of b reads better than every
// value of a.
func allBetter(d metricDef, a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	if d.Better == higher {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

func readResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

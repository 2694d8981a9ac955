package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json -compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runCompare judges a change against its parent from two -out files of
// untraced runs; the i-th run of each workload in one file pairs with
// the i-th of the same workload in the other (run them alternately).
// For every (end-to-end metric, workload) pair it reports each side's
// median and quartiles and a verdict:
//
//   - gain: at least 10 pairs, the change wins at least 9 in 10 of
//     them (ties count for neither), the medians differ by more than
//     the parent's interquartile range, and the change failed no more
//     requests than the parent;
//   - regression: the change's median is worse than the parent's by
//     more than the metric's bound;
//   - unresolved: the parent's interquartile range, as a share of its
//     median, is wider than the bound, and not every change run reads
//     better than every parent run;
//   - ok otherwise.
//
// The exit status is 1 when any pair regressed.
func runCompare(specPath, parentPath, changePath string) int {
	var spec benchSpec
	raw, err := os.ReadFile(specPath)
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhload: reading bounds:", err)
		return 2
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhload:", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhload:", err)
		return 2
	}
	var names []string
	for w := range parent {
		if len(change[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	status := 0
	fmt.Printf("%-15s %-15s %25s %25s %8s %6s %6s  %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "delta", "wins", "bound", "verdict")
	for _, w := range names {
		p, c := parent[w], change[w]
		pairs := min(len(p), len(c))
		if pairs < 10 {
			fmt.Printf("%s: only %d pairs; at least 10 are needed to claim a gain\n", w, pairs)
		}
		pFailed, cFailed := 0, 0
		for i := 0; i < pairs; i++ {
			pFailed += p[i].Failed
			cFailed += c[i].Failed
		}
		if cFailed > pFailed {
			fmt.Printf("%s: the change failed %d requests, the parent %d; no gain counts\n", w, cFailed, pFailed)
		}
		for _, m := range spec.EndToEnd {
			pv, cv := values(p[:pairs], m.Name), values(c[:pairs], m.Name)
			if len(pv) != pairs || len(cv) != pairs || pairs < 2 {
				fmt.Printf("%-15s %-15s missing from some runs\n", w, m.Name)
				continue
			}
			better := func(a, b float64) bool { // a reads better than b
				if m.Better == "higher" {
					return a > b
				}
				return a < b
			}
			wins := 0
			for i := range pv {
				if better(cv[i], pv[i]) {
					wins++
				}
			}
			pq1, pmed, pq3 := quartiles(pv)
			cq1, cmed, cq3 := quartiles(cv)
			worse := (cmed - pmed) / pmed
			if m.Better == "higher" {
				worse = -worse
			}
			// Every change run reads better than every parent run when the
			// change's worst beats the parent's best.
			allBetter := better(minmax(cv, m.Better != "higher"), minmax(pv, m.Better == "higher"))
			verdict := "ok"
			switch {
			case pairs >= 10 && cFailed <= pFailed && 10*wins >= 9*pairs && math.Abs(cmed-pmed) > pq3-pq1 && better(cmed, pmed):
				verdict = "gain"
			case (pq3-pq1)/pmed > m.Bound && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regression"
				status = 1
			}
			fmt.Printf("%-15s %-15s %10.4g [%.4g,%.4g] %10.4g [%.4g,%.4g] %+7.1f%% %3d/%-3d %5.0f%%  %s\n",
				w, m.Name, pmed, pq1, pq3, cmed, cq1, cq3, 100*(cmed-pmed)/pmed, wins, pairs, 100*m.Bound, verdict)
		}
	}
	return status
}

// readRecords loads the untraced runs of an -out file by workload, in
// file order.
func readRecords(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// minmax returns the least or, with greatest, the greatest value of xs.
func minmax(xs []float64, greatest bool) float64 {
	s := sortedFloats(xs)
	if greatest {
		return s[len(s)-1]
	}
	return s[0]
}

package main

// compare.go is --compare: two sets of run records (the parent's and a
// change's), compared per workload and end-to-end metric by the rule the
// benchmark fixes.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadRecords reads a record file, or every untraced record in a
// directory.
func loadRecords(path string) ([]*record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*-trace0.json"))
		if err != nil {
			return nil, err
		}
	}
	var recs []*record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rec := &record{}
		if err := json.Unmarshal(b, rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if !rec.Traced {
			recs = append(recs, rec)
		}
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", path)
	}
	return recs, nil
}

// side is one set's values of one metric on one workload.
type side struct {
	values            []float64
	median, q1, q3    float64
	attempted, failed int
}

func summarize(recs []*record, workload, name string) side {
	var s side
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		s.attempted += r.Attempted
		s.failed += r.Failed
		for _, m := range r.Metrics {
			if m.Name == name {
				s.values = append(s.values, m.Value)
			}
		}
	}
	if len(s.values) > 0 {
		s.median = median(s.values)
		s.q1, s.q3 = quartiles(s.values)
	}
	return s
}

// verdict applies the benchmark's rule to parent a and change b: worse
// when b's median is worse than a's by more than the bound, unresolved
// when a's own interquartile spread is wider than the bound, better when b
// improves on a by more than that spread, and same otherwise.
func verdict(d metricDef, a, b side) (move float64, v string) {
	move = (b.median - a.median) / a.median
	gain := -move
	if d.better == "higher" {
		gain = move
	}
	spread := (a.q3 - a.q1) / a.median
	switch {
	case gain < -d.bound:
		return move, "worse"
	case spread > d.bound:
		return move, "unresolved"
	case gain > spread:
		return move, "better"
	}
	return move, "same"
}

// compare prints, for every workload both sets ran and every end-to-end
// metric, each side's median and quartiles, the move and the verdict,
// then each side's fail ratio. It reports false when any unit failed or
// any verdict is worse, except on a raw time, which is shown only to
// judge the host.
func compare(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := loadRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadRecords(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%s)\nB: %s (%s)\n", pathA, describeEnv(a), pathB, describeEnv(b))
	fmt.Fprintf(w, "%-11s %-15s %-36s %-36s %9s %6s  %s\n", "workload", "metric", "A median [q1 q3] (n)", "B median [q1 q3] (n)", "move", "bound", "verdict")
	ok := true
	for _, wl := range workloads {
		for _, d := range endToEnd {
			if d.only != "" && d.only != wl {
				continue
			}
			sa, sb := summarize(a, wl, d.name), summarize(b, wl, d.name)
			if len(sa.values) == 0 || len(sb.values) == 0 {
				continue
			}
			move, v := verdict(d, sa, sb)
			if v == "worse" && !d.raw {
				ok = false
			}
			fmt.Fprintf(w, "%-11s %-15s %-36s %-36s %+8.2f%% %5.0f%%  %s\n", wl, d.name,
				describeSide(sa), describeSide(sb), 100*move, 100*d.bound, v)
		}
		sa, sb := summarize(a, wl, "fail_ratio"), summarize(b, wl, "fail_ratio")
		if sa.attempted == 0 || sb.attempted == 0 {
			continue
		}
		if sa.failed > 0 || sb.failed > 0 {
			ok = false
		}
		fmt.Fprintf(w, "%-11s %-15s %-36s %-36s\n", wl, "fail_ratio",
			fmt.Sprintf("%d/%d", sa.failed, sa.attempted), fmt.Sprintf("%d/%d", sb.failed, sb.attempted))
	}
	return ok, nil
}

func describeSide(s side) string {
	return fmt.Sprintf("%.4g [%.4g %.4g] (%d)", s.median, s.q1, s.q3, len(s.values))
}

// describeEnv lists the distinct machines and seeds of a record set.
func describeEnv(recs []*record) string {
	envs := map[string]bool{}
	seeds := map[int64]bool{}
	for _, r := range recs {
		e := r.Env
		envs[fmt.Sprintf("%s/%s %q numcpu=%d gomaxprocs=%d %s", e.GOOS, e.GOARCH, e.CPU, e.NumCPU, e.GOMAXPROCS, e.GoVersion)] = true
		seeds[r.Seed] = true
	}
	var es []string
	for e := range envs {
		es = append(es, e)
	}
	sort.Strings(es)
	var ss []int64
	for s := range seeds {
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i] < ss[j] })
	return fmt.Sprintf("%s; seeds %v", strings.Join(es, ", "), ss)
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Exit codes of compare.
const (
	comparePass          = 0
	compareFail          = 1 // a regression beyond a bound, or a count that moved
	compareUsage         = 2
	compareNotComparable = 3 // nothing failed, but some metric could not be compared
)

// compareCmd compares two sets of result records: each argument is a
// record file or a directory of them.
func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare OLD NEW   (each a result record or a directory of them)")
		return compareUsage
	}
	var sets [2][]record
	for i, p := range args {
		recs, err := loadRecords(p)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
			return compareUsage
		}
		sets[i] = recs
	}
	lines, code := compareRecords(sets[0], sets[1])
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return code
}

// loadRecords reads a record file, or every record file in a directory.
func loadRecords(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		all, err := filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, f := range all {
			if !strings.HasSuffix(f, ".trace.json") {
				files = append(files, f)
			}
		}
	}
	var recs []record
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no result records", path)
	}
	return recs, nil
}

// compareRecords compares old and new per workload and run kind. Counts
// must repeat exactly between records of one seed, on any machine. Times
// compare by median, and only when every record carries the same stamp;
// otherwise they are reported as not comparable, which never passes.
func compareRecords(old, new []record) ([]string, int) {
	type key struct {
		workload string
		trace    bool
	}
	group := func(rs []record) map[key][]record {
		m := map[key][]record{}
		for _, r := range rs {
			k := key{r.Workload, r.Trace}
			m[k] = append(m[k], r)
		}
		return m
	}
	og, ng := group(old), group(new)
	var keys []key
	for k := range ng {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].trace && keys[j].trace
	})

	var lines []string
	failed, incomparable := false, false
	note := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for _, k := range keys {
		o, n := og[k], ng[k]
		note("== %s trace=%v: %d old, %d new records", k.workload, k.trace, len(o), len(n))
		for _, r := range n {
			if !r.Result.Correct {
				failed = true
				note("FAIL     new seed %d failed its output checks: %s", r.Seed, strings.Join(r.Problems, "; "))
			}
		}
		if len(o) == 0 {
			incomparable = true
			note("NOT COMPARABLE: no old records")
			continue
		}
		sameStamp := true
		for _, r := range append(append([]record(nil), o...), n...) {
			if r.Stamp != o[0].Stamp {
				sameStamp = false
			}
		}
		if moved := movedDigests(o, n); len(moved) > 0 {
			failed = true
			note("%-8s %-24s %s", "MOVED", "digest", strings.Join(moved, ", "))
		}
		defs := endToEnd
		if k.trace {
			defs = perLayer
		}
		for _, d := range defs {
			if d.class == classCount {
				status, ok, compared := compareCounts(d.name, o, n)
				note("%-8s %-24s %s", status, d.name, ok)
				failed = failed || status == "MOVED"
				incomparable = incomparable || !compared
				continue
			}
			if !sameStamp {
				incomparable = true
				note("%-8s %-24s stamps differ (nproc, GOMAXPROCS, Go version or CPU model)", "N/C", d.name)
				continue
			}
			mo, mn := medianOf(d.name, o), medianOf(d.name, n)
			worse := 0.0
			if mo != 0 {
				worse = (mn - mo) / mo
				if d.better == "higher" {
					worse = -worse
				}
			}
			status := "ok"
			if d.bound > 0 && worse > d.bound {
				status, failed = "WORSE", true
			}
			note("%-8s %-24s old %.6g new %.6g %s, worse by %+.1f%% (bound %.0f%%)",
				status, d.name, mo, mn, d.unit, 100*worse, 100*d.bound)
		}
	}
	for k := range og {
		if _, ok := ng[k]; !ok {
			incomparable = true
			note("NOT COMPARABLE: %s trace=%v has no new records", k.workload, k.trace)
		}
	}
	switch {
	case failed:
		note("RESULT: FAIL")
		return lines, compareFail
	case incomparable:
		note("RESULT: NOT COMPARABLE")
		return lines, compareNotComparable
	}
	note("RESULT: PASS")
	return lines, comparePass
}

// compareCounts checks a deterministic metric between the records of each
// seed both sets ran.
func compareCounts(name string, old, new []record) (status, detail string, compared bool) {
	byseed := map[int64]float64{}
	for _, r := range old {
		byseed[r.Seed] = r.Result.Metrics[name].Value
	}
	var moved []string
	common := 0
	for _, r := range new {
		v, ok := byseed[r.Seed]
		if !ok {
			continue
		}
		common++
		if got := r.Result.Metrics[name].Value; got != v {
			moved = append(moved, fmt.Sprintf("seed %d: %v -> %v", r.Seed, v, got))
		}
	}
	switch {
	case len(moved) > 0:
		return "MOVED", strings.Join(moved, ", "), true
	case common == 0:
		return "N/C", "no seed in common", false
	}
	return "exact", fmt.Sprintf("identical on %d common seeds", common), true
}

// movedDigests lists the seeds both sets ran whose serve digests differ.
func movedDigests(old, new []record) []string {
	byseed := map[int64]string{}
	for _, r := range old {
		byseed[r.Seed] = r.Digest
	}
	var moved []string
	for _, r := range new {
		if d, ok := byseed[r.Seed]; ok && d != r.Digest {
			moved = append(moved, fmt.Sprintf("seed %d: %s -> %s", r.Seed, d, r.Digest))
		}
	}
	return moved
}

func medianOf(name string, rs []record) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = r.Result.Metrics[name].Value
	}
	return median(xs)
}

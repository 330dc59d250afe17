package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compare implements `perfbench compare A B`: A and B are files of run
// records appended with --out. It prints, per workload and metric, each
// side's median and quartiles. Results measured on different hosts, Go
// versions, GOMAXPROCS or kernel builds are not comparable, so it refuses
// (exit 1) unless every record carries the same fingerprint.
func compare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.jsonl B.jsonl")
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		recs, err := readRecords(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 1
		}
		if len(recs) == 0 {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s holds no records\n", path)
			return 1
		}
		sides[i] = recs
	}
	want := sides[0][0].Fingerprint
	for i, recs := range sides {
		for _, r := range recs {
			if r.Fingerprint != want {
				fmt.Fprintf(os.Stderr, "perfbench compare: refusing: %s has a run fingerprinted %+v, %s has %+v\n",
					args[i], r.Fingerprint, args[0], want)
				return 1
			}
		}
	}
	type key struct {
		workload string
		trace    int
		metric   string
	}
	vals := map[key]*[2][]float64{}
	units := map[key]string{}
	for i, recs := range sides {
		for _, r := range recs {
			for name, m := range r.Result.Metrics {
				k := key{r.Workload, r.Trace, name}
				if vals[k] == nil {
					vals[k] = &[2][]float64{}
				}
				vals[k][i] = append(vals[k][i], m.Value)
				units[k] = m.Unit
			}
		}
	}
	keys := make([]key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		if keys[a].trace != keys[b].trace {
			return keys[a].trace < keys[b].trace
		}
		return keys[a].metric < keys[b].metric
	})
	fmt.Printf("fingerprint %+v\n", want)
	fmt.Printf("%-20s %-32s %-8s %34s %34s\n", "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)")
	for _, k := range keys {
		v := vals[k]
		fmt.Printf("%-20s %-32s %-8s %34s %34s\n", k.workload, k.metric, units[k], summary(v[0]), summary(v[1]))
	}
	return 0
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", median(xs), quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// report prints, for each span file a traced run wrote, every layer's
// self time per traced iteration, its share of the iterations' wall time,
// and the end-to-end metric it moves.
func report(w io.Writer, paths []string) error {
	if len(paths) == 0 {
		return fmt.Errorf("report: name at least one span file")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var f spanFile
		if err := json.Unmarshal(data, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans, err := decodeSpans(f.Spans)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		printReport(w, f, spans)
	}
	return nil
}

func decodeSpans(raw [][6]any) ([]spanRec, error) {
	out := make([]spanRec, len(raw))
	for i, r := range raw {
		var nums [5]float64
		for j, k := range []int{0, 1, 2, 4, 5} {
			v, ok := r[k].(float64)
			if !ok {
				return nil, fmt.Errorf("span %d: field %d is not a number", i, k)
			}
			nums[j] = v
		}
		name, ok := r[3].(string)
		if !ok {
			return nil, fmt.Errorf("span %d: name is not a string", i)
		}
		out[i] = spanRec{ID: int64(nums[0]), Parent: int64(nums[1]), Run: int64(nums[2]), Name: name,
			Start: int64(nums[3]), End: int64(nums[4])}
	}
	return out, nil
}

func printReport(w io.Writer, f spanFile, spans []spanRec) {
	self := selfTimes(spans)
	sum := map[string]int64{}
	calls := map[string]int{}
	var wall int64
	runs := map[int64]bool{}
	for _, s := range spans {
		sum[s.Name] += self[s.ID]
		calls[s.Name]++
		if s.Name == "run" {
			wall += s.End - s.Start
			runs[s.Run] = true
		}
	}
	n := float64(max(len(runs), 1))
	fmt.Fprintf(w, "%s, seed %d, %d traced iterations, %.3f s wall each (%s, %s kernel, GOMAXPROCS %d)\n",
		f.Workload, f.Seed, len(runs), float64(wall)/1e9/n, f.Env.CPUModel, f.Env.BatchKernel, f.Env.GOMAXPROCS)
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return sum[names[i]] > sum[names[j]] })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tself s/iter\tshare of wall\tcalls/iter\tmoves")
	for _, name := range names {
		moves := spanMoves[name]
		if moves == "" {
			moves = "?"
		}
		fmt.Fprintf(tw, "%s\t%.4f\t%.1f%%\t%.0f\t%s\n", name, float64(sum[name])/1e9/n,
			100*ratio(float64(sum[name]), float64(wall)), float64(calls[name])/n, moves)
	}
	tw.Flush()
	fmt.Fprintln(w, "Layers inside pipeline.job run on every sweep goroutine at once, so their shares can add up past 100%.")
	fmt.Fprintln(w)
}

// Command perfbench is the repository's diagnosis benchmark. It drives
// four workloads through the public core, shard and pipeline entry
// points and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench report <spans.json>...
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it alternates untraced iterations with iterations that
// re-drive the same work layer by layer from outside, a span around every
// call, and reports the per-layer metrics. Every iteration's DR outputs
// are checked: at the default seed against reference.json, otherwise
// against each other. See README.md for the metrics and workloads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// defaultSeed is the fault-sample seed reference.json was recorded at.
const defaultSeed = 1

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // test-sized inputs; never compared with reference.json
	store    string // shard-warm's shared artifact store
	spans    string // where a traced run writes its spans
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "report":
			if err := report(os.Stdout, os.Args[2:]); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench:", err)
				os.Exit(1)
			}
			return
		case warmStoreCmd:
			os.Exit(warmStoreMain(os.Args[2:]))
		}
	}
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	var writeRef string
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "fault-sample seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	fs.StringVar(&cfg.store, "store", "", "shard-warm artifact store directory (default .bench_build/perfbench/store/seed<n>)")
	fs.StringVar(&cfg.spans, "spans", "", "traced run's span file (default .bench_build/perfbench/spans/<workload>-seed<n>.json)")
	fs.StringVar(&writeRef, "write-reference", "", "record every workload's DR outputs at the default seed into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if cfg.store == "" {
		// One store per seed: what a warm store holds (the plans, and the
		// cone snapshot that grows with every new fault sample) then
		// depends on the seed alone, not on the runs before.
		cfg.store = filepath.Join(".bench_build", "perfbench", "store", fmt.Sprintf("seed%d", cfg.seed))
	}
	if writeRef != "" {
		if err := writeReference(context.Background(), writeRef, cfg.store); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if _, ok := lookupWorkload(cfg.workload, false); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want %s)\n", cfg.workload, workloadNames())
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive")
		return 2
	}
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	envLine, _ := json.Marshal(map[string]any{"env": res.env})
	fmt.Fprintln(stdout, string(envLine))
	line, _ := json.Marshal(res.line)
	fmt.Fprintln(stdout, string(line))
	if !res.line.Correct {
		for _, m := range res.mismatches {
			fmt.Fprintln(stderr, "perfbench: mismatch:", m)
		}
		return 1
	}
	return 0
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	env        envRecord
	line       resultLine
	mismatches []string
}

// since returns seconds elapsed since t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }

package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// Iterations before the time budget may end a run: enough for a median
// of set-up times, and in a traced run two iterations of each kind.
const (
	minIterations       = 3
	minTracedIterations = 4
)

// runner holds one run's state.
type runner struct {
	w     workload
	seed  int64
	store string
	chk   *checker
}

// prepare runs the untimed preamble. For shard-warm that is one sharded
// iteration that warms the store (plans are keyed by the seeded fault
// sample, so every run warms its own), then the local sweep the sharded
// studies must equal. The warm-up runs in a child process: on a cold
// store it encodes and writes every blob, and that garbage must not set
// this process's peak RSS.
func (r *runner) prepare(ctx context.Context, tiny bool) error {
	if r.w.Kind != kindShard {
		return nil
	}
	if err := os.MkdirAll(r.store, 0o755); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, exe, warmStoreCmd, "--workload", r.w.Name, "--seed", strconv.FormatInt(r.seed, 10),
		"--store", r.store, "--tiny="+strconv.FormatBool(tiny))
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("warming the store: %w", err)
	}
	t := r.w.Targets[0]
	c, err := generate(t.Profile)
	if err != nil {
		return err
	}
	sample := stratified(collapsed(c), r.w.SweepFaults, sampleSeed(r.seed, 0))
	b, err := core.NewCircuitBench(c, r.w.options(r.w.Schemes[0], t.Groups, pipeline.NewCache()))
	if err != nil {
		return err
	}
	st, err := b.RunContext(ctx, sample)
	if err != nil {
		return err
	}
	r.chk.study(namedStudy{t.Profile + "/" + r.w.Schemes[0], "local sweep", st})
	return nil
}

// warmStoreCmd names the child process prepare starts.
const warmStoreCmd = "warm-store"

// warmStoreMain is the child: one untraced shard-warm iteration over the
// store, failing unless its study is complete.
func warmStoreMain(args []string) int {
	fs := flag.NewFlagSet(warmStoreCmd, flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", defaultSeed, "fault-sample seed")
	store := fs.String("store", "", "artifact store directory")
	tiny := fs.Bool("tiny", false, "test-sized inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name, *tiny)
	if !ok || w.Kind != kindShard {
		fmt.Fprintf(os.Stderr, "perfbench %s: %q is not a shard workload\n", warmStoreCmd, *name)
		return 2
	}
	it, err := w.iterate(context.Background(), *seed, *store, nil, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", warmStoreCmd, err)
		return 1
	}
	for _, s := range it.studies {
		if !s.study.Completeness.Complete() {
			fmt.Fprintf(os.Stderr, "perfbench %s: %s incomplete\n", warmStoreCmd, s.name)
			return 1
		}
	}
	return 0
}

// singles diagnoses the whole single-fault set, one call at a time from
// one caller, and returns each call's latency in ms. Every iteration
// covers the whole set, so the percentiles are those of one fixed
// population however many iterations a run holds.
func (r *runner) singles(set []func() *core.FaultDiagnosis) []float64 {
	runtime.GC()
	lat := make([]float64, len(set))
	outs := make([]*core.FaultDiagnosis, len(set))
	for j, diagnose := range set {
		t0 := time.Now()
		outs[j] = diagnose()
		lat[j] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	for j, fd := range outs {
		r.chk.single(j, fd)
	}
	return lat
}

func run(ctx context.Context, cfg config) (*result, error) {
	w, ok := lookupWorkload(cfg.workload, cfg.tiny)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	res := &result{env: collectEnv(w.Name, cfg.seed)}
	r := &runner{w: w, seed: cfg.seed, store: cfg.store, chk: newChecker(w, cfg.seed)}
	if cfg.tiny {
		r.chk = newOpenChecker()
	}
	if err := r.prepare(ctx, cfg.tiny); err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	least := minIterations
	if cfg.trace {
		least = minTracedIterations
	}
	gc0 := readMetrics(gcCPU, totalCPU)
	start := time.Now()
	var iters []*iteration
	var latencies []float64
	for i := 0; i < least || since(start) < cfg.seconds; i++ {
		var t *tracer
		if cfg.trace && i%2 == 1 {
			t = tr
			tr.run.Store(int64(i))
		}
		var singles func(*iteration)
		var singlesAlloc float64
		if !cfg.trace {
			singles = func(it *iteration) {
				a := readMetrics(heapAllocs)[0]
				latencies = append(latencies, r.singles(it.singles)...)
				it.singles = nil
				runtime.GC()
				singlesAlloc = readMetrics(heapAllocs)[0] - a
			}
		}
		runtime.GC()
		a0 := readMetrics(heapAllocs)[0]
		it, err := w.iterate(ctx, cfg.seed, cfg.store, t, singles)
		if err != nil {
			r.chk.failIteration(w.plannedFaults(), err)
			break
		}
		it.alloc = uint64(readMetrics(heapAllocs)[0] - a0 - singlesAlloc)
		for _, s := range it.studies {
			r.chk.study(s)
		}
		if t != nil {
			it.layers = layerMetrics(tr.runSpans(int64(i)), it.counts)
		}
		iters = append(iters, it)
	}
	gc1 := readMetrics(gcCPU, totalCPU)

	res.line = resultLine{
		Correct:   r.chk.failed == 0 && len(iters) > 0,
		Attempted: max(r.chk.attempted, 1),
		Failed:    r.chk.failed,
		Metrics:   map[string]metric{},
	}
	if r.chk.attempted == 0 {
		res.line.Failed = 1
	}
	res.mismatches = r.chk.mismatches
	if len(iters) == 0 {
		return res, nil
	}
	vals := map[string]float64{}
	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
		for _, d := range defs {
			vals[d.name] = tracedMedian(iters, d.name)
		}
		untraced, traced := runSeconds(iters, false), runSeconds(iters, true)
		vals["trace.overhead_frac"] = median(traced)/median(untraced) - 1
		vals["runtime.gc_cpu_frac"] = ratio(gc1[0]-gc0[0], gc1[1]-gc0[1])
		if err := writeSpans(cfg.spans, res.env, w.Name, cfg.seed, iters, tr); err != nil {
			return nil, err
		}
	} else {
		var setups, runs, rates, allocs []float64
		for _, it := range iters {
			setups = append(setups, it.setup)
			runs = append(runs, it.setup+it.sweep)
			rates = append(rates, float64(it.faults)/it.sweep)
			allocs = append(allocs, float64(it.alloc)/1e6)
		}
		sort.Float64s(latencies)
		vals["setup_s"] = median(setups)
		vals["run_s"] = median(runs)
		vals["sweep_faults_per_s"] = median(rates)
		vals["fault_ms_p50"] = percentile(latencies, 0.50)
		vals["fault_ms_p99"] = percentile(latencies, 0.99)
		vals["alloc_mb"] = median(allocs)
		vals["peak_rss_mb"] = peakRSSMB()
	}
	for _, d := range defs {
		res.line.Metrics[d.name] = metric{vals[d.name], d.unit}
	}
	return res, nil
}

func runSeconds(iters []*iteration, traced bool) []float64 {
	var out []float64
	for _, it := range iters {
		if it.traced == traced {
			out = append(out, it.setup+it.sweep)
		}
	}
	return out
}

func tracedMedian(iters []*iteration, name string) float64 {
	var vals []float64
	for _, it := range iters {
		if it.traced {
			vals = append(vals, it.layers[name])
		}
	}
	return median(vals)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

const (
	heapAllocs = "/gc/heap/allocs:bytes"
	gcCPU      = "/cpu/classes/gc/total:cpu-seconds"
	totalCPU   = "/cpu/classes/total:cpu-seconds"
)

// readMetrics reads runtime/metrics samples as float64.
func readMetrics(names ...string) []float64 {
	samples := make([]metrics.Sample, len(names))
	for i, n := range names {
		samples[i].Name = n
	}
	metrics.Read(samples)
	out := make([]float64, len(names))
	for i, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

// spanFile is the traced run's span dump, read back by "perfbench report".
type spanFile struct {
	Env      envRecord  `json:"env"`
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Runs     []runEntry `json:"runs"`
	// Spans are [id, parent, run, name, start_ns, end_ns].
	Spans [][6]any `json:"spans"`
}

type runEntry struct {
	Run    int64   `json:"run"`
	Traced bool    `json:"traced"`
	SetupS float64 `json:"setup_s"`
	SweepS float64 `json:"sweep_s"`
}

func writeSpans(path string, env envRecord, workload string, seed int64, iters []*iteration, tr *tracer) error {
	f := spanFile{Env: env, Workload: workload, Seed: seed}
	for i, it := range iters {
		f.Runs = append(f.Runs, runEntry{Run: int64(i), Traced: it.traced, SetupS: it.setup, SweepS: it.sweep})
	}
	tr.mu.Lock()
	for _, s := range tr.spans {
		f.Spans = append(f.Spans, [6]any{s.ID, s.Parent, s.Run, s.Name, s.Start, s.End})
	}
	tr.mu.Unlock()
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

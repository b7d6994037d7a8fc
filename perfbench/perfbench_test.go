package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as shard-warm's store-warming child
// process, which prepare starts with os.Executable.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == warmStoreCmd {
		os.Exit(warmStoreMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests read.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// tinyRun runs a workload at test size with a non-default seed, so
// untraced, traced, local and sharded outputs are checked against each
// other rather than against reference.json.
func tinyRun(t *testing.T, workload string, trace bool) (*result, config) {
	t.Helper()
	dir := t.TempDir()
	cfg := config{
		workload: workload, seed: 7, seconds: 0.01, trace: trace, tiny: true,
		store: filepath.Join(dir, "store"), spans: filepath.Join(dir, "spans.json"),
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.line.Correct || res.line.Failed != 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d of %d: %v", workload, trace, res.line.Correct,
			res.line.Failed, res.line.Attempted, res.mismatches)
	}
	return res, cfg
}

func TestMetricTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json %v, benchmark emits %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layers, perLayerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json %v, benchmark emits %v", layers, perLayerMetrics)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("workloads in BENCHMARK.json %q, benchmark has %q", got, workloadNames())
	}
}

// TestEveryMetricEmitted runs every workload untraced and traced and
// checks each declared metric comes out with its unit; end-to-end
// metrics must never read 0.
func TestEveryMetricEmitted(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, _ := tinyRun(t, w.Name, false)
			if len(res.line.Metrics) != len(endToEndMetrics) {
				t.Errorf("untraced run emits %d metrics, want %d", len(res.line.Metrics), len(endToEndMetrics))
			}
			for _, d := range endToEndMetrics {
				m, ok := res.line.Metrics[d.name]
				if !ok || m.Unit != d.unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v), want unit %s and a positive value", d.name, m, ok, d.unit)
				}
			}
			res, _ = tinyRun(t, w.Name, true)
			if len(res.line.Metrics) != len(perLayerMetrics) {
				t.Errorf("traced run emits %d metrics, want %d", len(res.line.Metrics), len(perLayerMetrics))
			}
			for _, d := range perLayerMetrics {
				if m, ok := res.line.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s = %+v (present %v), want unit %s", d.name, m, ok, d.unit)
				}
			}
			// Layers every workload drives must show work.
			for _, name := range []string{"benchgen.generate_s", "sim.collapse_s", "sim.schedule_s", "sim.kernel_s",
				"bist.verdicts_s", "diagnosis.prune_s", "pipeline.jobs", "pipeline.busy_frac", "sim.batches"} {
				if v := res.line.Metrics[name].Value; !(v > 0) {
					t.Errorf("%s = %v, want > 0", name, v)
				}
			}
		})
	}
}

// TestTracedMatchesUntraced re-drives each workload layer by layer and
// compares every study with the untraced core/shard run bit for bit.
func TestTracedMatchesUntraced(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			w := w.tiny()
			store := filepath.Join(t.TempDir(), "store")
			plain, err := w.iterate(ctx, 3, store, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := w.iterate(ctx, 3, store, newTracer(), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]drOut{}
			for _, s := range plain.studies {
				want[s.name] = outputsOf(s.name, s.study)
			}
			if len(traced.studies) < len(plain.studies) {
				t.Fatalf("traced run has %d studies, untraced %d", len(traced.studies), len(plain.studies))
			}
			for _, s := range traced.studies {
				if got := outputsOf(s.name, s.study); !reflect.DeepEqual(got, want[s.name]) {
					t.Errorf("%s (%s): traced %+v, untraced %+v", s.name, s.origin, got, want[s.name])
				}
			}
		})
	}
}

func TestSpansNest(t *testing.T) {
	_, cfg := tinyRun(t, "soc1-sweep", true)
	var buf bytes.Buffer
	if err := report(&buf, []string{cfg.spans}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.spans)
	if err != nil {
		t.Fatal(err)
	}
	var f spanFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	spans, err := decodeSpans(f.Spans)
	if err != nil {
		t.Fatal(err)
	}
	byID := map[int64]spanRec{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s ends before it starts", s.Name)
		}
		if s.Parent == 0 {
			if s.Name != "run" {
				t.Errorf("root span %s, want only run spans at the root", s.Name)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: parent %d missing", s.Name, s.Parent)
			continue
		}
		if s.Start < p.Start || s.End > p.End || s.Run != p.Run {
			t.Errorf("%s [%d,%d] run %d escapes parent %s [%d,%d] run %d", s.Name, s.Start, s.End, s.Run, p.Name, p.Start, p.End, p.Run)
		}
		if s.Name == "partition.seed_search" && p.Name != "bist.engine" {
			t.Errorf("seed search nested in %s, want bist.engine", p.Name)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %s has negative self time %d", byID[id].Name, self)
		}
	}
	for _, layer := range []string{"diagnosis.prune", "partition.seed_search", "sim.kernel", "setup_s", "sweep_faults_per_s"} {
		if !strings.Contains(buf.String(), layer) {
			t.Errorf("report lacks %q:\n%s", layer, buf.String())
		}
	}
}

// TestShardWarmCounts checks the counting listener sees the protocol's
// bytes, the workers accept jobs, and a warmed store is only read.
func TestShardWarmCounts(t *testing.T) {
	res, _ := tinyRun(t, "shard-warm", true)
	m := res.line.Metrics
	for _, name := range []string{"shard.bytes_in", "shard.bytes_out", "shard.jobs", "shard.sweep_s",
		"shard.local_sweep_s", "pipeline.fetch_s", "pipeline.disk_hits"} {
		if !(m[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, m[name].Value)
		}
	}
	if v := m["pipeline.disk_writes"].Value; v != 0 {
		t.Errorf("pipeline.disk_writes = %v on a warmed store, want 0", v)
	}
}

func TestCheckerCountsMismatches(t *testing.T) {
	w, _ := lookupWorkload("volume-sweep", true)
	it, err := w.iterate(context.Background(), 5, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := it.studies[0]
	c := newOpenChecker()
	c.study(s)
	c.study(s)
	if c.failed != 0 {
		t.Fatalf("equal studies counted %d failures: %v", c.failed, c.mismatches)
	}
	s.study.Pruned.Candidates++
	c.study(s)
	if want := s.study.Completeness.Scheduled; c.failed != want {
		t.Errorf("a changed study counts %d failures, want its %d faults", c.failed, want)
	}
	pinned := newOpenChecker()
	pinned.pinned = true
	pinned.singles[0] = singleOut{-1, -1, -1}
	pinned.single(0, it.singles[0]())
	pinned.single(1, it.singles[1]())
	if pinned.failed != 2 || pinned.attempted != 2 {
		t.Errorf("a differing and an unpinned single count %d failures of %d, want 2 of 2", pinned.failed, pinned.attempted)
	}
}

func TestReferenceCoversEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if _, ok := referenceFor(w); !ok {
			t.Errorf("reference.json has no entry for %s at its current sizes", w.Name)
		}
	}
}

func TestBatchKernel(t *testing.T) {
	for _, tc := range []struct {
		arch  string
		flags []string
		want  string
	}{
		{"amd64", []string{"sse2", "avx2"}, "avx2"},
		{"amd64", []string{"sse2", "avx"}, "scalar"},
		{"arm64", []string{"avx2"}, "scalar"},
	} {
		if got := batchKernel(tc.arch, tc.flags); got != tc.want {
			t.Errorf("batchKernel(%s, %v) = %s, want %s", tc.arch, tc.flags, got, tc.want)
		}
	}
}

func TestCLIRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "soc1-sweep", "--trace", "2"},
		{"--workload", "soc1-sweep", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := cli(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("cli(%v) = %d with stdout %q, want 2 and no result", args, code, out.String())
		}
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/scan"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/soc"
)

type kind string

const (
	kindCircuits kind = "circuits" // standalone benchgen circuits, one bench per scheme
	kindSOC      kind = "soc"      // one SOC preset, faults injected core by core
	kindShard    kind = "shard"    // one circuit swept through in-process shard workers
)

// target is one device of a workload: a benchgen profile (or, for
// kindSOC, an SOC preset) and its groups per partition.
type target struct {
	Profile string `json:"profile"`
	Groups  int    `json:"groups"`
}

// workload fixes everything a run's inputs depend on except the seed.
// Its JSON form keys reference.json, so a changed size never compares
// against outputs recorded at another size.
type workload struct {
	Name       string   `json:"name"`
	Kind       kind     `json:"kind"`
	Targets    []target `json:"targets"`
	Schemes    []string `json:"schemes"`
	Partitions int      `json:"partitions"`
	Patterns   int      `json:"patterns"`
	// SweepFaults is the seeded fault sample per circuit or SOC core.
	SweepFaults int `json:"sweep_faults"`
	// SingleFaults is the fixed single-fault set per circuit or core.
	SingleFaults int `json:"single_faults"`
}

var table2Targets = []target{
	{"s5378", 8}, {"s9234", 8}, {"s13207", 16}, {"s15850", 16}, {"s38417", 32}, {"s38584", 32},
}

var bothSchemes = []string{"random-selection", "two-step"}

// workloads are the benchmark's four input sets; README.md gives the
// reason for each.
var workloads = []workload{
	{Name: "table2-cold", Kind: kindCircuits, Targets: table2Targets, Schemes: bothSchemes,
		Partitions: 8, Patterns: 128, SweepFaults: 100, SingleFaults: 125},
	{Name: "soc1-sweep", Kind: kindSOC, Targets: []target{{"soc1", 32}}, Schemes: bothSchemes,
		Partitions: 8, Patterns: 128, SweepFaults: 120, SingleFaults: 100},
	{Name: "volume-sweep", Kind: kindCircuits, Targets: []target{{"s38584", 4}}, Schemes: []string{"two-step"},
		Partitions: 2, Patterns: 2048, SweepFaults: 8000, SingleFaults: 750},
	{Name: "shard-warm", Kind: kindShard, Targets: []target{{"s13207", 16}}, Schemes: []string{"two-step"},
		Partitions: 8, Patterns: 128, SweepFaults: 2000, SingleFaults: 1000},
}

// tiny shrinks a workload to test size; the layers it exercises stay
// the same.
func (w workload) tiny() workload {
	switch w.Kind {
	case kindCircuits:
		if len(w.Targets) > 2 {
			w.Targets = w.Targets[:2]
		}
		w.SweepFaults, w.SingleFaults = 40, 6
		if w.Patterns > 256 {
			w.Patterns = 256
		}
	case kindSOC:
		w.SweepFaults, w.SingleFaults = 3, 1
	case kindShard:
		w.SweepFaults, w.SingleFaults = 60, 6
	}
	return w
}

func lookupWorkload(name string, tiny bool) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			if tiny {
				w = w.tiny()
			}
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// sweepWorkers is the sweep goroutine count: one per CPU, one caller.
func sweepWorkers() int { return runtime.NumCPU() }

func schemeByName(name string) partition.Scheme {
	if name == "random-selection" {
		return partition.RandomSelection{}
	}
	return partition.TwoStep{}
}

func (w workload) options(scheme string, groups int, cache *pipeline.ArtifactCache) core.Options {
	return core.Options{
		Scheme: schemeByName(scheme), Groups: groups, Partitions: w.Partitions, Patterns: w.Patterns,
		Workers: sweepWorkers(), Cache: cache,
	}
}

// plannedFaults is the number of fault diagnoses one iteration's sweeps
// schedule; an iteration that errors counts them all as failed.
func (w workload) plannedFaults() int {
	devices := len(w.Targets)
	if w.Kind == kindSOC {
		if p, ok := benchgen.SOCPresetByName(w.Targets[0].Profile); ok {
			if profs, err := p.Profiles(); err == nil {
				devices = len(profs)
			}
		}
	}
	return w.SweepFaults * len(w.Schemes) * devices
}

func generate(profile string) (*circuit.Circuit, error) {
	p, ok := benchgen.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown benchgen profile %q", profile)
	}
	return benchgen.Generate(p)
}

func collapsed(c *circuit.Circuit) []sim.Fault {
	return sim.CollapseFaults(c, sim.FullFaultList(c))
}

// singlesSeed fixes the single-fault set for every --seed: the tail
// percentile then measures the program, not which faults were drawn, and
// reference.json pins every single call's outcome.
const singlesSeed = 20030310

// sampleSeed derives the sample seed of the i-th circuit or core.
func sampleSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// stratified draws n faults, one uniformly from each of n equal slices
// of the collapsed list. Fault cost varies along the structural order,
// so one draw per slice keeps the sample's cost mix, and with it the
// sweep rate, steady from seed to seed.
func stratified(faults []sim.Fault, n int, seed int64) []sim.Fault {
	if n >= len(faults) {
		return append([]sim.Fault(nil), faults...)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]sim.Fault, n)
	for i := range out {
		lo, hi := i*len(faults)/n, (i+1)*len(faults)/n
		out[i] = faults[lo+r.Intn(hi-lo)]
	}
	return out
}

// iteration is one regeneration of a workload's table: set-up, then
// every sweep.
type iteration struct {
	traced       bool
	setup, sweep float64 // seconds
	faults       int     // faults diagnosed by the timed sweeps
	studies      []namedStudy
	alloc        uint64
	// singles diagnoses the fixed single-fault set, one call each.
	singles []func() *core.FaultDiagnosis
	// counts holds a traced iteration's raw layer counters; layers, its
	// per-layer metrics derived from them and the spans.
	counts, layers map[string]float64
}

type namedStudy struct {
	name, origin string
	study        *core.Study
}

func (it *iteration) add(name, origin string, st *core.Study) {
	it.studies = append(it.studies, namedStudy{name, origin, st})
}

// iterate runs one iteration, traced when tr is set. An untraced
// iteration calls singles, when set, between set-up and the sweeps: its
// benches are then built but no sweep has touched their circuits yet,
// so single-fault latencies do not depend on the seeded sample.
func (w workload) iterate(ctx context.Context, seed int64, store string, tr *tracer, singles func(*iteration)) (*iteration, error) {
	switch w.Kind {
	case kindCircuits:
		if tr != nil {
			return w.circuitsTraced(ctx, seed, tr)
		}
		return w.circuits(ctx, seed, singles)
	case kindSOC:
		if tr != nil {
			return w.socTraced(ctx, seed, tr)
		}
		return w.soc(ctx, seed, singles)
	}
	return w.shardSweep(ctx, seed, store, tr, singles)
}

// circuits is the untraced circuit iteration: core benches over one
// fresh memory-only artifact cache, then a RunContext sweep per bench.
func (w workload) circuits(ctx context.Context, seed int64, singles func(*iteration)) (*iteration, error) {
	it := &iteration{}
	t0 := time.Now()
	cache := pipeline.NewCache()
	type unit struct {
		name   string
		b      *core.CircuitBench
		faults []sim.Fault
	}
	var units []unit
	for i, t := range w.Targets {
		c, err := generate(t.Profile)
		if err != nil {
			return nil, err
		}
		all := collapsed(c)
		sample := stratified(all, w.SweepFaults, sampleSeed(seed, i))
		var last *core.CircuitBench
		for _, name := range w.Schemes {
			b, err := core.NewCircuitBench(c, w.options(name, t.Groups, cache))
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", t.Profile, name, err)
			}
			units = append(units, unit{t.Profile + "/" + name, b, sample})
			last = b
		}
		for _, f := range stratified(all, w.SingleFaults, singlesSeed+int64(i)) {
			it.singles = append(it.singles, func() *core.FaultDiagnosis { return last.DiagnoseFault(f) })
		}
	}
	it.setup = since(t0)
	if singles != nil {
		singles(it)
	}
	t1 := time.Now()
	for _, u := range units {
		st, err := u.b.RunContext(ctx, u.faults)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		it.add(u.name, "sweep", st)
		it.faults += len(u.faults)
	}
	it.sweep = since(t1)
	return it, nil
}

// soc is the untraced SOC iteration: one SOCBench per scheme, then a
// RunCoreContext sweep per (scheme, core).
func (w workload) soc(ctx context.Context, seed int64, singlesPhase func(*iteration)) (*iteration, error) {
	it := &iteration{}
	t0 := time.Now()
	t := w.Targets[0]
	s, err := soc.Preset(t.Profile)
	if err != nil {
		return nil, err
	}
	samples, singles := w.coreSamples(s, seed, nil, 0)
	cache := pipeline.NewCache()
	var benches []*core.SOCBench
	for _, name := range w.Schemes {
		b, err := core.NewSOCBench(s, w.options(name, t.Groups, cache))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", t.Profile, name, err)
		}
		benches = append(benches, b)
	}
	last := benches[len(benches)-1]
	for ci, faults := range singles {
		for _, f := range faults {
			it.singles = append(it.singles, func() *core.FaultDiagnosis { return last.DiagnoseFault(ci, f) })
		}
	}
	it.setup = since(t0)
	if singlesPhase != nil {
		singlesPhase(it)
	}
	t1 := time.Now()
	for bi, b := range benches {
		for ci := range s.Cores {
			st, err := b.RunCoreContext(ctx, ci, samples[ci])
			if err != nil {
				return nil, err
			}
			it.add(socStudyName(t.Profile, s, ci, w.Schemes[bi]), "sweep", st)
			it.faults += len(samples[ci])
		}
	}
	it.sweep = since(t1)
	return it, nil
}

func socStudyName(preset string, s *soc.SOC, ci int, scheme string) string {
	return fmt.Sprintf("%s/%s/%s", preset, s.Cores[ci].Name, scheme)
}

// coreSamples collapses every core's fault list (one span per core when
// traced) and draws the sweep sample and the single-fault set.
func (w workload) coreSamples(s *soc.SOC, seed int64, tr *tracer, parent int64) (samples, singles [][]sim.Fault) {
	for ci, c := range s.Cores {
		sp := tr.open(parent, "sim.collapse")
		all := collapsed(c.Circuit)
		tr.close(sp)
		samples = append(samples, stratified(all, w.SweepFaults, sampleSeed(seed, ci)))
		singles = append(singles, stratified(all, w.SingleFaults, singlesSeed+int64(ci)))
	}
	return samples, singles
}

// defaultPRPG is the pattern generator core.Options defaults to.
func defaultPRPG() (*lfsr.LFSR, error) {
	return lfsr.New(lfsr.MustPrimitivePoly(16), 0xACE1)
}

// circuitsTraced re-drives circuits layer by layer: the simulation layer
// is built once per circuit and shared by its schemes, as the artifact
// cache shares it in the untraced run.
func (w workload) circuitsTraced(ctx context.Context, seed int64, tr *tracer) (*iteration, error) {
	it := &iteration{traced: true, counts: map[string]float64{}}
	t0 := time.Now()
	run := tr.open(0, "run")
	defer tr.close(run)
	setup := tr.open(run.id, "setup")
	var units []tracedUnit
	for i, t := range w.Targets {
		sp := tr.open(setup.id, "benchgen.generate")
		c, err := generate(t.Profile)
		tr.close(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.open(setup.id, "sim.collapse")
		all := collapsed(c)
		tr.close(sp)
		sample := stratified(all, w.SweepFaults, sampleSeed(seed, i))

		sp = tr.open(setup.id, "sim.goodsim")
		prpg, err := defaultPRPG()
		if err != nil {
			return nil, err
		}
		blocks := bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), w.Patterns)
		fs := sim.NewFaultSim(c, blocks)
		good := make([]*sim.Response, len(blocks))
		for bi := range blocks {
			good[bi] = fs.Good(bi)
		}
		tr.close(sp)

		cfg := scan.SingleChainOrdered(scan.NaturalOrder(c.NumDFFs()))
		for _, name := range w.Schemes {
			o := w.options(name, t.Groups, nil)
			es, err := buildEngine(tr, setup.id, cfg, o, good, blocks)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", t.Profile, name, err)
			}
			units = append(units, tracedUnit{
				name: t.Profile + "/" + name, opts: o, engines: es, circuit: c, faults: sample,
				newLane: circuitLanes(fs),
			})
		}
	}
	tr.close(setup)
	it.setup = since(t0)
	t1 := time.Now()
	sweep := tr.open(run.id, "sweep")
	planCache := pipeline.NewCache()
	for _, u := range units {
		st, err := tracedSweep(ctx, tr, sweep.id, planCache, u, it.counts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		it.add(u.name, "traced sweep", st)
		it.faults += len(u.faults)
	}
	tr.close(sweep)
	it.sweep = since(t1)
	addCacheStats(it.counts, planCache.Stats())
	return it, nil
}

// socTraced is circuitsTraced for an SOC preset.
func (w workload) socTraced(ctx context.Context, seed int64, tr *tracer) (*iteration, error) {
	it := &iteration{traced: true, counts: map[string]float64{}}
	t0 := time.Now()
	run := tr.open(0, "run")
	defer tr.close(run)
	setup := tr.open(run.id, "setup")
	t := w.Targets[0]
	sp := tr.open(setup.id, "benchgen.generate")
	s, err := soc.Preset(t.Profile)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	samples, _ := w.coreSamples(s, seed, tr, setup.id)

	sp = tr.open(setup.id, "sim.goodsim")
	prpg, err := defaultPRPG()
	if err != nil {
		return nil, err
	}
	fs, err := soc.NewFaultSim(s, s.GeneratePatterns(prpg, w.Patterns))
	tr.close(sp)
	if err != nil {
		return nil, err
	}

	var units []tracedUnit
	for _, name := range w.Schemes {
		o := w.options(name, t.Groups, nil)
		es, err := buildEngine(tr, setup.id, s.SingleMetaChain(), o, fs.Good(), fs.Blocks())
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", t.Profile, name, err)
		}
		for ci, c := range s.Cores {
			units = append(units, tracedUnit{
				name: socStudyName(t.Profile, s, ci, name), opts: o, engines: es, circuit: c.Circuit,
				faults: samples[ci], newLane: socLanes(fs, ci),
			})
		}
	}
	tr.close(setup)
	it.setup = since(t0)
	t1 := time.Now()
	sweep := tr.open(run.id, "sweep")
	planCache := pipeline.NewCache()
	for _, u := range units {
		st, err := tracedSweep(ctx, tr, sweep.id, planCache, u, it.counts)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.name, err)
		}
		it.add(u.name, "traced sweep", st)
		it.faults += len(u.faults)
	}
	tr.close(sweep)
	it.sweep = since(t1)
	addCacheStats(it.counts, planCache.Stats())
	return it, nil
}

// shardSweep is the shard-warm iteration: two in-process shard workers
// with fresh caches over the shared warm store, dialled and warm-started
// in set-up, then one coordinator sweep. Traced, it also re-runs the
// same faults locally, layer by layer, on worker 0's artifacts.
func (w workload) shardSweep(ctx context.Context, seed int64, store string, tr *tracer, singles func(*iteration)) (*iteration, error) {
	it := &iteration{traced: tr != nil}
	if tr != nil {
		it.counts = map[string]float64{}
	}
	t0 := time.Now()
	run := tr.open(0, "run")
	defer tr.close(run)
	setup := tr.open(run.id, "setup")
	t := w.Targets[0]
	scheme := w.Schemes[0]
	name := t.Profile + "/" + scheme
	sp := tr.open(setup.id, "benchgen.generate")
	c, err := generate(t.Profile)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.open(setup.id, "sim.collapse")
	all := collapsed(c)
	tr.close(sp)
	sample := stratified(all, w.SweepFaults, sampleSeed(seed, 0))

	sp = tr.open(setup.id, "shard.start")
	ws, err := startWorkers(ctx, store, 2)
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	defer ws.close()
	sp = tr.open(setup.id, "shard.dial")
	conns, err := shard.DialAll(ctx, ws.addrs())
	tr.close(sp)
	if err != nil {
		return nil, err
	}
	ws.conns = conns

	// Warm start: each worker's cache decodes the simulation layer from
	// the store and builds partitions and golden signatures, as both
	// worker processes would, concurrently.
	o := w.options(scheme, t.Groups, nil)
	benches := make([]*core.CircuitBench, len(ws.caches))
	arts := make([]*pipeline.CircuitArtifacts, len(ws.caches))
	errs := make([]error, len(ws.caches))
	var wg sync.WaitGroup
	for i, cache := range ws.caches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if tr == nil {
				wo := o
				wo.Cache = cache
				benches[i], errs[i] = core.NewCircuitBench(c, wo)
				return
			}
			sp := tr.open(setup.id, "pipeline.fetch")
			arts[i], errs[i] = cache.Circuit(c, pipeline.Spec{Scheme: o.Scheme, Groups: o.Groups, Partitions: o.Partitions, Patterns: o.Patterns})
			tr.close(sp)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if tr == nil {
		last := benches[0]
		for _, f := range stratified(all, w.SingleFaults, singlesSeed) {
			it.singles = append(it.singles, func() *core.FaultDiagnosis { return last.DiagnoseFault(f) })
		}
	}
	tr.close(setup)
	it.setup = since(t0)
	if singles != nil {
		singles(it)
	}

	t1 := time.Now()
	sweep := tr.open(run.id, "sweep")
	sp = tr.open(sweep.id, "shard.sweep")
	co := &shard.Coordinator{Conns: conns}
	st, err := co.RunCircuit(ctx, shard.ProfileRef(t.Profile, 0, 1, c), o, sample, shard.StuckAtCosts(c, sample), nil)
	tr.close(sp)
	tr.close(sweep)
	it.sweep = since(t1)
	if err != nil {
		return nil, err
	}
	it.add(name, "sharded sweep", st)
	it.faults = len(sample)

	if tr == nil {
		return it, nil
	}
	a := arts[0]
	local := tr.open(run.id, "shard.local_sweep")
	lst, err := tracedSweep(ctx, tr, local.id, pipeline.NewCache(), tracedUnit{
		name: name, opts: o, circuit: c, faults: sample, newLane: circuitLanes(a.Sim),
		engines: engineSet{eng: a.Engine, diag: a.Diag, good: a.Good, blocks: a.Blocks},
	}, it.counts)
	tr.close(local)
	if err != nil {
		return nil, err
	}
	it.add(name, "traced local sweep", lst)
	for _, cache := range ws.caches {
		addCacheStats(it.counts, cache.Stats())
	}
	it.counts["shard.bytes_in"] = float64(ws.bytesIn.Load())
	it.counts["shard.bytes_out"] = float64(ws.bytesOut.Load())
	it.counts["shard.jobs"] = float64(ws.jobs.Load())
	return it, nil
}

func addCacheStats(counts map[string]float64, s pipeline.Stats) {
	counts["pipeline.mem_hits"] += float64(s.Hits + s.SimHits + s.PlanHits)
	counts["pipeline.disk_hits"] += float64(s.DiskHits)
	counts["pipeline.disk_misses"] += float64(s.DiskMisses)
	counts["pipeline.disk_writes"] += float64(s.DiskWrites)
}

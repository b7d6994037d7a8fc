// Package core orchestrates the paper's full diagnosis flow: pattern
// generation, fault simulation, multi-session signature collection under a
// partitioning scheme, candidate derivation, and the diagnostic-resolution
// (DR) metric — for a single full-scan circuit or for a core-based SOC
// tested through a TestRail. It is the layer the examples, command-line
// tools, and experiment drivers build on.
//
// The heavy lifting lives in internal/pipeline: a bench borrows an
// immutable artifact set (patterns, fault-free responses, partitions,
// golden signatures) — deduplicated by Options.Cache when several benches
// share a content key — and drives the fault loop over a batched worker
// pool with per-worker reusable scratch buffers, so the steady-state loop
// stays allocation-free.
package core

import (
	"context"
	"fmt"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/drc"
	"repro/internal/lfsr"
	"repro/internal/noise"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Options configures a diagnosis study.
type Options struct {
	// Scheme partitions the scan chains; required.
	Scheme partition.Scheme
	// Groups per partition (the paper's b).
	Groups int
	// Partitions to apply (each adds Groups BIST sessions).
	Partitions int
	// Patterns per BIST session.
	Patterns int
	// PRPGSeed seeds the pattern generator; zero selects 0xACE1.
	PRPGSeed uint64
	// PRPGPoly is the pattern-generator polynomial; zero selects the
	// paper's degree-16 primitive polynomial.
	PRPGPoly lfsr.Poly
	// MISRPoly is the compaction polynomial; zero selects degree 16.
	MISRPoly lfsr.Poly
	// Ideal bypasses MISR compaction (no aliasing); for ablations.
	Ideal bool
	// Chains splits the scan cells into this many balanced chains; zero
	// selects a single chain.
	Chains int
	// ScanOrder optionally overrides the natural (structural) scan order;
	// must be a permutation of the cell indices.
	ScanOrder []int
	// Workers bounds the goroutines used to diagnose faults concurrently.
	// Zero selects GOMAXPROCS; 1 forces serial execution. Results are
	// identical regardless of the worker count: each fault's diagnosis is
	// independent and aggregation preserves fault order.
	Workers int
	// Noise models an unreliable tester (intermittent fault activation,
	// verdict flips, session aborts). The zero value is a perfect tester
	// and keeps the exact deterministic code path. Each fault draws an
	// independent, reproducible noise substream derived from Noise.Seed
	// and the fault's identity, so results do not depend on diagnosis
	// order or worker count.
	Noise noise.Model
	// Retry schedules repeated executions of every session under noise;
	// completed executions vote on the tri-state verdict. Ignored for a
	// perfect tester.
	Retry bist.RetryPolicy
	// VoteThreshold K makes pruning demand corroboration: a cell is pruned
	// only when its group passed in at least K partitions (Unknown
	// verdicts never prune). 0 or 1 is the paper's hard intersection.
	VoteThreshold int
	// Cache deduplicates build artifacts (pattern blocks, fault-free
	// responses, partitions, golden signatures) across benches that share
	// a content key. Nil builds fresh artifacts per bench. Runtime knobs —
	// Workers, Noise, Retry, VoteThreshold, and the cache itself — are not
	// part of the key, so sweeps over them reuse one artifact set.
	Cache *pipeline.ArtifactCache
	// CacheDir attaches a persistent artifact tier rooted at this
	// directory (see pipeline.ArtifactCache.AttachDir): artifacts built by
	// one process are decoded instead of rebuilt by the next — the
	// warm-start path. When set with a nil Cache, a fresh cache is created
	// to host the tier. Empty means in-memory caching only.
	CacheDir string
	// CacheBudget bounds Cache with a cost-accounted LRU budget (bytes
	// and/or entries); the zero value leaves the cache unbounded. Applied
	// at bench construction via Cache.SetBudget, so the first bench of a
	// sweep installs the limit for every later borrower. Ignored without
	// a Cache.
	CacheBudget pipeline.Budget
	// Lanes caps the faults packed per simulation batch, 1..256. Caps
	// above 64 engage the wide-word kernel: faults are organised into
	// 2 or 4 word-parallel planes with per-lane cone masking, trading a
	// coarser cancellation granularity for higher sweep throughput. Zero
	// selects the engine default (256).
	Lanes int
	// StrictDRC runs the static design-rule checker (internal/drc) on the
	// netlist — and, at SOC scope, on every core and the TAM
	// configuration — before any simulation artifact is built, and fails
	// construction on the first violation. The scheme presumes a
	// well-formed scan design: one floating net or combinational loop
	// silently corrupts every signature, so strict benches refuse to
	// simulate such inputs instead of diagnosing garbage.
	StrictDRC bool
}

func (o Options) withDefaults() Options {
	if o.PRPGSeed == 0 {
		o.PRPGSeed = 0xACE1
	}
	if o.PRPGPoly == 0 {
		o.PRPGPoly = lfsr.MustPrimitivePoly(16)
	}
	if o.Chains == 0 {
		o.Chains = 1
	}
	return o
}

func (o Options) validate() error {
	if o.Scheme == nil {
		return fmt.Errorf("core: options need a partitioning scheme")
	}
	if o.Groups < 1 || o.Partitions < 1 || o.Patterns < 1 {
		return fmt.Errorf("core: groups, partitions and patterns must be positive")
	}
	if err := o.Noise.Validate(); err != nil {
		return err
	}
	if o.Retry.MaxRetries < 0 {
		return fmt.Errorf("core: retry count %d < 0", o.Retry.MaxRetries)
	}
	if o.VoteThreshold < 0 {
		return fmt.Errorf("core: vote threshold %d < 0", o.VoteThreshold)
	}
	if o.VoteThreshold > o.Partitions {
		return fmt.Errorf("core: vote threshold %d exceeds %d partitions (nothing could ever be pruned)", o.VoteThreshold, o.Partitions)
	}
	if o.Lanes < 0 || o.Lanes > sim.MaxBatchLanes {
		return fmt.Errorf("core: lane cap %d outside 0..%d", o.Lanes, sim.MaxBatchLanes)
	}
	return nil
}

// attachTiers wires the cache knobs at bench construction: the budget is
// installed first (so the first bench of a sweep bounds the cache for
// every later borrower) and the disk tier is attached when CacheDir is
// set, creating a cache to host it if the caller supplied none.
func (o *Options) attachTiers() error {
	if o.CacheDir != "" && o.Cache == nil {
		o.Cache = pipeline.NewCache()
	}
	if o.CacheBudget != (pipeline.Budget{}) {
		o.Cache.SetBudget(o.CacheBudget)
	}
	if o.CacheDir != "" {
		return o.Cache.AttachDir(o.CacheDir)
	}
	return nil
}

// spec extracts the artifact content key: exactly the Options fields that
// shape build artifacts, with defaults resolved.
func (o Options) spec() pipeline.Spec {
	return pipeline.Spec{
		Scheme:     o.Scheme,
		Groups:     o.Groups,
		Partitions: o.Partitions,
		Patterns:   o.Patterns,
		PRPGSeed:   o.PRPGSeed,
		PRPGPoly:   o.PRPGPoly,
		MISRPoly:   o.MISRPoly,
		Ideal:      o.Ideal,
		Chains:     o.Chains,
		ScanOrder:  o.ScanOrder,
	}.Normalized()
}

// FaultDiagnosis is the per-fault outcome of a study.
type FaultDiagnosis struct {
	Fault sim.Fault
	// Actual holds the truly failing cells (simulation ground truth).
	Actual *bitset.Set
	// Detected reports whether any scan cell captured an error; undetected
	// faults are excluded from DR.
	Detected bool
	// Result holds candidate sets (intersection and pruned). Under a noisy
	// tester this is the robust (vote-threshold) outcome.
	Result *diagnosis.Result
	// Baseline is the hard-intersection result over the same noisy
	// verdicts — what the paper's pipeline would have concluded from this
	// unreliable run. Nil for a perfect tester, where it would equal
	// Result.
	Baseline *diagnosis.Result
	// Reliability summarises the tester noise absorbed and the retry
	// budget spent for this fault. Nil for a perfect tester.
	Reliability *bist.Reliability
	// CandidatesByPartition[k-1] is the intersection candidate count after
	// the first k partitions.
	CandidatesByPartition []int
	// Completeness records how many of the scheduled partitions the
	// verdicts reflect. A degraded run (deadline mid-session) reports
	// Observed < Scheduled, and Result then holds the sound conservative
	// superset from the observed prefix; see DiagnoseFaultContext.
	Completeness diagnosis.Completeness
}

// Missed reports whether the final (pruned) candidate set lost a truly
// failing cell — the unsoundness a robust diagnosis must avoid.
func (fd *FaultDiagnosis) Missed() bool {
	return fd.Detected && !fd.Result.Pruned.SupersetOf(fd.Actual)
}

// Study aggregates a scheme's diagnostic resolution over many faults.
type Study struct {
	SchemeName string
	Groups     int
	Partitions int
	Patterns   int

	Diagnosed  int // detected faults included in DR
	Undetected int // faults with no failing scan cell (excluded)

	// ByPartition[k-1] accumulates DR over the first k partitions, without
	// pruning.
	ByPartition []diagnosis.DR
	// Full is DR with all partitions, without pruning.
	Full diagnosis.DR
	// Pruned is DR with all partitions, with superposition pruning.
	Pruned diagnosis.DR

	// Misses counts diagnosed faults whose final candidate set lost a
	// truly failing cell (zero for a sound diagnosis).
	Misses int
	// BaselineFull and BaselineMisses mirror Full and Misses for the
	// hard-intersection baseline over the same noisy verdicts; populated
	// only when the tester model injects noise.
	BaselineFull   diagnosis.DR
	BaselineMisses int
	// Reliability aggregates tester noise and retry spend across the run's
	// diagnosed faults (all-zero for a perfect tester).
	Reliability bist.Reliability
	// Completeness records how many of the scheduled faults this study
	// aggregates. A cancelled sweep (RunContext and friends) reports the
	// contiguous fault prefix it finished; a completed sweep reports
	// Observed == Scheduled.
	Completeness diagnosis.Completeness
	// PlanBatches and PlanFill describe the batch schedule the sweep ran
	// on: the number of compiled batches and the scheduler-saturation
	// metric (faults / lane slots; see sim.BatchPlan.Fill). Zero values
	// mean the sweep never built a batch plan.
	PlanBatches int
	PlanFill    float64
}

func newStudy(o Options, schemeName string) *Study {
	return &Study{
		SchemeName:  schemeName,
		Groups:      o.Groups,
		Partitions:  o.Partitions,
		Patterns:    o.Patterns,
		ByPartition: make([]diagnosis.DR, o.Partitions),
	}
}

func (s *Study) add(fd *FaultDiagnosis) {
	if !fd.Detected {
		s.Undetected++
		return
	}
	s.Diagnosed++
	actual := fd.Actual.Len()
	for k := range s.ByPartition {
		s.ByPartition[k].Add(fd.CandidatesByPartition[k], actual)
	}
	s.Full.Add(fd.Result.Candidates.Len(), actual)
	s.Pruned.Add(fd.Result.Pruned.Len(), actual)
	if fd.Missed() {
		s.Misses++
	}
	if fd.Baseline != nil {
		s.BaselineFull.Add(fd.Baseline.Candidates.Len(), actual)
		if !fd.Baseline.Pruned.SupersetOf(fd.Actual) {
			s.BaselineMisses++
		}
	}
	if fd.Reliability != nil {
		s.Reliability.Merge(fd.Reliability)
	}
}

// PartitionsToReachDR returns the smallest partition count k whose
// unpruned DR is at most the target, or -1 if no prefix reaches it — the
// paper's Figure 5 quantity.
func (s *Study) PartitionsToReachDR(target float64) int {
	for k := range s.ByPartition {
		if s.ByPartition[k].Value() <= target {
			return k + 1
		}
	}
	return -1
}

// CircuitBench couples one full-scan circuit with its build artifacts
// (patterns, fault-free responses, engine, diagnoser) for repeated fault
// studies. The circuit runs as the one-core SOC of soc.OfCircuit, so
// every method delegates to the SOC bench's build, sweep and single-fault
// paths with core 0.
type CircuitBench struct {
	Circuit *circuit.Circuit
	Opts    Options

	dev *SOCBench // the circuit as a one-core SOC
}

// NewCircuitBench prepares the BIST environment for a circuit: generates
// the pattern set, simulates the fault-free machine, builds the scan
// configuration, partitions, and syndrome tables. With Opts.Cache set,
// benches sharing a content key borrow one artifact set instead of
// rebuilding it.
func NewCircuitBench(c *circuit.Circuit, opts Options) (*CircuitBench, error) {
	dev, err := newDevice(soc.OfCircuit(c), opts, func(o Options) error {
		if o.StrictDRC {
			return drc.Error(c.Name, drc.Check(c))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &CircuitBench{Circuit: c, Opts: dev.Opts, dev: dev}, nil
}

// Engine exposes the underlying BIST engine (partitions, signatures).
func (b *CircuitBench) Engine() *bist.Engine { return b.dev.Engine() }

// Artifacts exposes the bench's immutable build artifacts (shared with
// other benches when Opts.Cache deduplicated the build).
func (b *CircuitBench) Artifacts() *pipeline.CircuitArtifacts { return b.dev.art.Circuit() }

// GoldenSignatures returns the precomputed fault-free signature per
// (partition, verdict slot) — the tester-side storage.
func (b *CircuitBench) GoldenSignatures() [][]uint64 { return b.dev.GoldenSignatures() }

// Cost returns the plan's test-resource footprint.
func (b *CircuitBench) Cost() bist.Cost { return b.dev.Cost() }

// Faults returns the collapsed stuck-at fault list of the circuit.
func (b *CircuitBench) Faults() []sim.Fault { return b.dev.CoreFaults(0) }

// DiagnoseFault runs the complete flow for one fault on the reference
// (unpooled) path; Run uses the pooled batch path with identical results.
func (b *CircuitBench) DiagnoseFault(f sim.Fault) *FaultDiagnosis { return b.dev.DiagnoseFault(0, f) }

// DiagnoseMulti runs the flow for several simultaneous faults — the
// paper's multiple-fault scenario, where fault cones produce disjoint or
// overlapping failing segments (Figure 2). The FaultDiagnosis carries the
// first fault.
func (b *CircuitBench) DiagnoseMulti(faults []sim.Fault) *FaultDiagnosis {
	res := b.dev.fs.CoreSims()[0].RunMulti(faults)
	return b.dev.diagnose(res.Fault, res.FailingCells, res.Faulty)
}

// diagnoseFault derives session verdicts — deterministic for a perfect
// tester, tri-state with retries and voting under noise — and fills in the
// candidate sets for the single-fault path (SOCBench.diagnose). This is
// the reference implementation the pooled worker path must match
// bit-for-bit; it allocates per call and is kept for single-fault APIs and
// equivalence tests.
func diagnoseFault(o Options, eng *bist.Engine, diag *diagnosis.Diagnoser, good []*sim.Response, blocks []*sim.Block, faulty []*sim.Response, fd *FaultDiagnosis) {
	if !fd.Detected {
		return
	}
	var v *bist.Verdicts
	if o.Noise.Enabled() {
		// Fork a per-fault substream keyed by the fault's identity so the
		// noise a fault sees is independent of diagnosis order.
		m := o.Noise.Fork(uint64(int64(fd.Fault.Net)+1), uint64(int64(fd.Fault.Gate)+1),
			uint64(int64(fd.Fault.Pin)+1), uint64(fd.Fault.Stuck))
		var rel *bist.Reliability
		v, rel = eng.NoisyVerdicts(good, faulty, blocks, m, o.Retry)
		fd.Reliability = rel
		fd.Baseline = diag.Diagnose(v)
		fd.Result = diag.DiagnoseRobust(v, o.VoteThreshold)
	} else {
		v = eng.Verdicts(good, faulty, blocks)
		fd.Result = diag.DiagnoseRobust(v, o.VoteThreshold)
	}
	fd.CandidatesByPartition = make([]int, o.Partitions)
	for k := 1; k <= o.Partitions; k++ {
		fd.CandidatesByPartition[k-1] = diag.Candidates(v, k).Len()
	}
}

// diagWorker carries one worker's reusable diagnosis buffers — a pooled
// Verdicts and the candidate-count scratch — so the steady-state fault
// loop only allocates what escapes into the FaultDiagnosis.
type diagWorker struct {
	o      Options
	eng    *bist.Engine
	diag   *diagnosis.Diagnoser
	good   []*sim.Response
	blocks []*sim.Block
	v      *bist.Verdicts
	counts []int
}

func newDiagWorker(o Options, eng *bist.Engine, diag *diagnosis.Diagnoser, good []*sim.Response, blocks []*sim.Block) *diagWorker {
	return &diagWorker{
		o: o, eng: eng, diag: diag, good: good, blocks: blocks,
		v:      eng.NewVerdicts(),
		counts: make([]int, o.Partitions),
	}
}

// diagnose is the pooled counterpart of diagnoseFault: verdicts land in
// the worker's reused buffers and candidate counts come from the
// O(cells × partitions) histogram pass instead of one bitset per prefix.
// actual and faulty may alias worker scratch; everything escaping into the
// FaultDiagnosis is copied.
func (w *diagWorker) diagnose(f sim.Fault, actual *bitset.Set, detected bool, faulty []*sim.Response) *FaultDiagnosis {
	fd := &FaultDiagnosis{Fault: f, Actual: actual.Clone(), Detected: detected}
	if !detected {
		return fd
	}
	var v *bist.Verdicts
	if w.o.Noise.Enabled() {
		m := w.o.Noise.Fork(uint64(int64(f.Net)+1), uint64(int64(f.Gate)+1),
			uint64(int64(f.Pin)+1), uint64(f.Stuck))
		var rel *bist.Reliability
		v, rel = w.eng.NoisyVerdicts(w.good, faulty, w.blocks, m, w.o.Retry)
		fd.Reliability = rel
		fd.Baseline = w.diag.Diagnose(v)
		fd.Result = w.diag.DiagnoseRobust(v, w.o.VoteThreshold)
	} else {
		w.eng.VerdictsInto(w.good, faulty, w.blocks, w.v)
		v = w.v
		fd.Result = w.diag.DiagnoseRobust(v, w.o.VoteThreshold)
	}
	w.diag.CandidateCounts(v, w.counts)
	fd.CandidatesByPartition = append([]int(nil), w.counts...)
	return fd
}

// Run diagnoses every fault and aggregates the study, using
// Opts.Workers goroutines.
func (b *CircuitBench) Run(faults []sim.Fault) *Study {
	return b.RunObserved(faults, nil)
}

// RunObserved is Run with a per-fault callback, invoked in fault order
// after all diagnoses complete, for reporting and tracing. The sweep is
// scheduled through the fault-parallel engine: faults are packed into
// cone-disjoint batches (sim.PlanBatches), whole batches are distributed
// over the worker pool, and each member is materialized into the same
// per-fault responses the event-driven engine produces — so results are
// identical for every worker count and bit-for-bit identical to the
// single-fault path.
func (b *CircuitBench) RunObserved(faults []sim.Fault, observe func(*FaultDiagnosis)) *Study {
	study, err := b.RunObservedContext(context.Background(), faults, observe)
	if err != nil {
		// Background context never cancels, so the only failure is a
		// recovered worker panic; keep the historical crash-loudly
		// contract for the context-free API.
		panic(err)
	}
	return study
}

// SOCBench is the SOC-level counterpart: the DUT is a set of cores on a
// TestRail, the fault lives in one core, and diagnosis runs over the meta
// scan chains.
type SOCBench struct {
	SOC  *soc.SOC
	Opts Options

	art *pipeline.SOCArtifacts
	fs  *soc.FaultSim // per-bench fork of the (possibly shared) simulator
}

// NewSOCBench prepares the BIST environment over the SOC's meta chains
// (Opts.Chains selects the TAM width; 1 is the single meta chain).
func NewSOCBench(s *soc.SOC, opts Options) (*SOCBench, error) {
	return newDevice(s, opts, func(o Options) error {
		if o.ScanOrder != nil {
			return fmt.Errorf("core: custom scan order is not supported at SOC level; the TestRail fixes daisy order")
		}
		if o.StrictDRC {
			return drc.Error(s.Name, drc.CheckSOC(s, o.Chains))
		}
		return nil
	})
}

// newDevice builds the bench both constructors share: options are
// defaulted and validated, check runs the caller's device rules before
// any artifact is built, and the artifacts come from Opts.Cache.
func newDevice(s *soc.SOC, opts Options, check func(Options) error) (*SOCBench, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := check(opts); err != nil {
		return nil, err
	}
	if err := opts.attachTiers(); err != nil {
		return nil, err
	}
	art, err := opts.Cache.SOC(s, opts.spec())
	if err != nil {
		return nil, err
	}
	return &SOCBench{SOC: s, Opts: opts, art: art, fs: art.Sim.Fork()}, nil
}

// Engine exposes the underlying BIST engine.
func (b *SOCBench) Engine() *bist.Engine { return b.art.Engine }

// Artifacts exposes the bench's immutable build artifacts.
func (b *SOCBench) Artifacts() *pipeline.SOCArtifacts { return b.art }

// GoldenSignatures returns the precomputed fault-free signature per
// (partition, verdict slot).
func (b *SOCBench) GoldenSignatures() [][]uint64 { return b.art.Golden }

// Cost returns the plan's test-resource footprint over the TAM.
func (b *SOCBench) Cost() bist.Cost { return b.art.Engine.Cost() }

// CoreFaults returns the collapsed fault list of core i.
func (b *SOCBench) CoreFaults(i int) []sim.Fault { return b.fs.CoreFaults(i) }

// DiagnoseFault runs the flow for a fault injected into one core on the
// reference (unpooled) path.
func (b *SOCBench) DiagnoseFault(core int, f sim.Fault) *FaultDiagnosis {
	res := b.fs.Run(core, f)
	return b.diagnose(res.Fault, res.FailingCells, res.Faulty)
}

// DiagnoseMultiCore runs the flow with one fault in each of several cores
// simultaneously — multiple spot defects, each contributing a clustered
// failing segment to the meta chain.
func (b *SOCBench) DiagnoseMultiCore(coreFaults map[int]sim.Fault) *FaultDiagnosis {
	res := b.fs.RunMulti(coreFaults)
	return b.diagnose(res.Fault, res.FailingCells, res.Faulty)
}

// diagnose is the single-fault path: the verdicts and candidate sets of
// one simulated (possibly multi-fault) defect.
func (b *SOCBench) diagnose(f sim.Fault, actual *bitset.Set, faulty []*sim.Response) *FaultDiagnosis {
	fd := &FaultDiagnosis{Fault: f, Actual: actual, Detected: !actual.Empty()}
	diagnoseFault(b.Opts, b.art.Engine, b.art.Diag, b.fs.Good(), b.fs.Blocks(), faulty, fd)
	return fd
}

// RunCore diagnoses a set of faults all injected into one core (the
// paper's one-faulty-core-per-session assumption), using Opts.Workers
// goroutines. Like CircuitBench.Run, the sweep schedules cone-disjoint
// fault batches over the pool; each member is materialized into the global
// meta-chain cell space exactly as the event-driven path would have.
func (b *SOCBench) RunCore(core int, faults []sim.Fault) *Study {
	study, err := b.RunCoreContext(context.Background(), core, faults)
	if err != nil {
		// See RunObserved: only a recovered worker panic can land here.
		panic(err)
	}
	return study
}

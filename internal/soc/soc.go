// Package soc models a core-based system-on-chip tested through a
// TestRail-style daisy-chain test access mechanism (TAM), the paper's
// Section 5 setting: the internal scan chains of the embedded cores are
// threaded into meta scan chains on the SOC, patterns are transported to
// all cores in a single test session, and a spot defect confines failing
// scan cells to one core's contiguous segment of the meta chain.
//
// Cells live in a global index space: core i's flip-flop j is global cell
// offset(i)+j. A TAM configuration is expressed as a scan.Config over the
// global cells, either one meta chain threading all cores in daisy order or
// W balanced meta chains (the paper's 8-bit TAM).
package soc

import (
	"context"
	"fmt"

	"repro/internal/benchgen"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/lfsr"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Core is an embedded core: a named netlist.
type Core struct {
	Name    string
	Circuit *circuit.Circuit
}

// SOC is an ordered set of cores; the order is the daisy-chain (TestRail)
// order in which meta chains thread through them.
type SOC struct {
	Name    string
	Cores   []*Core
	offsets []int // global cell offset per core
	total   int
}

// New assembles an SOC from cores in daisy-chain order.
func New(name string, cores ...*Core) (*SOC, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("soc %s: no cores", name)
	}
	s := &SOC{Name: name, Cores: cores}
	for _, c := range cores {
		if c.Circuit == nil {
			return nil, fmt.Errorf("soc %s: core %s has no netlist", name, c.Name)
		}
		s.offsets = append(s.offsets, s.total)
		s.total += c.Circuit.NumDFFs()
	}
	return s, nil
}

// OfCircuit returns a plain full-scan circuit as a one-core SOC, core and
// SOC both named after the circuit. Its single meta chain is the
// circuit's own scan chain and, for one core, GeneratePatterns draws the
// PRPG stream in the same order as bist.GenerateBlocks, so the SOC flow
// reproduces the standalone circuit's diagnosis.
func OfCircuit(c *circuit.Circuit) *SOC {
	return &SOC{Name: c.Name, Cores: []*Core{{Name: c.Name, Circuit: c}}, offsets: []int{0}, total: c.NumDFFs()}
}

// NumCells returns the total scan cell count across cores.
func (s *SOC) NumCells() int { return s.total }

// NumCores returns the core count.
func (s *SOC) NumCores() int { return len(s.Cores) }

// CellRange returns the global cell interval [lo, hi) of core i.
func (s *SOC) CellRange(i int) (lo, hi int) {
	lo = s.offsets[i]
	hi = lo + s.Cores[i].Circuit.NumDFFs()
	return lo, hi
}

// CoreOfCell returns the index of the core owning a global cell.
func (s *SOC) CoreOfCell(cell int) (int, error) {
	if cell < 0 || cell >= s.total {
		return 0, fmt.Errorf("soc %s: cell %d outside [0,%d)", s.Name, cell, s.total)
	}
	for i := range s.Cores {
		if lo, hi := s.CellRange(i); cell >= lo && cell < hi {
			return i, nil
		}
	}
	panic("soc: unreachable: offsets cover the full range")
}

// CoreByName finds a core index by name.
func (s *SOC) CoreByName(name string) (int, bool) {
	for i, c := range s.Cores {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// GlobalConeCells returns the global meta-chain cell indices a fault at
// site in core i can corrupt within one capture cycle: the core's memoized
// fan-out cone cells shifted to its contiguous segment of the daisy order.
// This is the event-driven engine's cone restriction composed with the
// TestRail's segment structure — a spot defect in one core can only ever
// disturb this subset of its segment.
func (s *SOC) GlobalConeCells(core int, site circuit.NetID) []int {
	lo, _ := s.CellRange(core)
	local := s.Cores[core].Circuit.Cone(site).Cells
	global := make([]int, len(local))
	for i, cell := range local {
		global[i] = lo + cell
	}
	return global
}

// SingleMetaChain returns the one-chain TAM: a single meta scan chain
// threading every core's internal chain in daisy order.
func (s *SOC) SingleMetaChain() scan.Config {
	return scan.SingleChain(s.total)
}

// MetaChains returns the W-chain TAM: the daisy-order cell sequence is
// re-organised into w balanced meta scan chains (contiguous runs, so each
// chain still visits the cores in daisy order).
func (s *SOC) MetaChains(w int) (scan.Config, error) {
	return scan.SplitContiguous(scan.NaturalOrder(s.total), w)
}

// Bypass returns the SOC view after by-passing the given cores (the
// TestRail removes a core from the meta chains when it runs out of test
// patterns). The returned SOC has its own, denser global cell space.
func (s *SOC) Bypass(bypassed ...int) (*SOC, error) {
	skip := make(map[int]bool, len(bypassed))
	for _, i := range bypassed {
		if i < 0 || i >= len(s.Cores) {
			return nil, fmt.Errorf("soc %s: bypass of nonexistent core %d", s.Name, i)
		}
		skip[i] = true
	}
	var kept []*Core
	for i, c := range s.Cores {
		if !skip[i] {
			kept = append(kept, c)
		}
	}
	return New(s.Name+"-bypassed", kept...)
}

// Phase is one stage of a daisy-chain test schedule: the cores still on
// the TestRail, the patterns applied during the stage, and the resulting
// meta-chain length.
type Phase struct {
	ActiveCores []int
	Patterns    int
	ChainLen    int
}

// Clocks returns the shift clocks the phase takes on a single meta chain.
func (p Phase) Clocks() int64 { return int64(p.Patterns) * int64(p.ChainLen) }

// Schedule computes the TestRail session plan of the paper's Section 5:
// all cores are tested together until the core with the smallest pattern
// budget runs out; that core is by-passed (shortening the meta chain) and
// the process repeats until every budget is exhausted. budgets[i] is the
// number of patterns core i needs.
func (s *SOC) Schedule(budgets []int) ([]Phase, error) {
	if len(budgets) != len(s.Cores) {
		return nil, fmt.Errorf("soc %s: %d budgets for %d cores", s.Name, len(budgets), len(s.Cores))
	}
	remaining := make([]int, len(budgets))
	copy(remaining, budgets)
	var phases []Phase
	applied := 0
	for {
		var active []int
		minLeft := 0
		chainLen := 0
		for i, r := range remaining {
			if r <= 0 {
				continue
			}
			active = append(active, i)
			chainLen += s.Cores[i].Circuit.NumDFFs()
			if minLeft == 0 || r < minLeft {
				minLeft = r
			}
		}
		if len(active) == 0 {
			return phases, nil
		}
		phases = append(phases, Phase{ActiveCores: active, Patterns: minLeft, ChainLen: chainLen})
		applied += minLeft
		for _, i := range active {
			remaining[i] -= minLeft
		}
	}
}

// ScheduleClocks sums a schedule's shift clocks.
func ScheduleClocks(phases []Phase) int64 {
	var total int64
	for _, p := range phases {
		total += p.Clocks()
	}
	return total
}

// SOC1 is the paper's first crafted SOC: the six largest ISCAS-89 circuits
// stitched together with a single meta scan chain threaded through their
// internal chains.
func SOC1() (*SOC, error) { return Preset("soc1") }

// SOC2 is the paper's second SOC, a variant of d695 from the ITC'02 SOC
// Test benchmarks restricted to its full-scan ISCAS-89 modules, tested over
// an 8-bit-wide TAM (Figure 4's daisy order).
func SOC2() (*SOC, error) { return Preset("soc2") }

// Preset assembles a built-in SOC by preset name (benchgen.SOCPresets):
// "soc1" and "soc2" are the paper's SOCs, "soc1m" the million-gate
// scale-out target (the six largest cores at ×15). Generation is
// deterministic, so two processes building the same preset get
// fingerprint-identical SOCs — what lets a shard job name its device by
// preset name plus content hash.
func Preset(name string) (*SOC, error) {
	p, ok := benchgen.SOCPresetByName(name)
	if !ok {
		return nil, fmt.Errorf("soc: unknown preset %q", name)
	}
	profs, err := p.Profiles()
	if err != nil {
		return nil, err
	}
	cores := make([]*Core, 0, len(profs))
	for _, prof := range profs {
		c, err := benchgen.Generate(prof)
		if err != nil {
			return nil, err
		}
		cores = append(cores, &Core{Name: prof.Name, Circuit: c})
	}
	return New(p.SOCName, cores...)
}

// GeneratePatterns expands nPatterns pseudorandom patterns from a single
// shared PRPG for every core: per pattern, the PRPG first fills all scan
// cells in daisy order (as the TestRail would shift them through the meta
// chain) and then every core's primary inputs in core order. It returns one
// block list per core, aligned pattern-for-pattern.
func (s *SOC) GeneratePatterns(prpg *lfsr.LFSR, nPatterns int) [][]*sim.Block {
	perCore := make([][]*sim.Block, len(s.Cores))
	for done := 0; done < nPatterns; done += 64 {
		n := nPatterns - done
		if n > 64 {
			n = 64
		}
		blocks := make([]*sim.Block, len(s.Cores))
		for i, c := range s.Cores {
			blocks[i] = &sim.Block{
				N:     n,
				PI:    make([]uint64, c.Circuit.NumInputs()),
				State: make([]uint64, c.Circuit.NumDFFs()),
			}
		}
		for j := 0; j < n; j++ {
			for i := range s.Cores {
				for cell := range blocks[i].State {
					blocks[i].State[cell] |= prpg.Step() << uint(j)
				}
			}
			for i := range s.Cores {
				for pi := range blocks[i].PI {
					blocks[i].PI[pi] |= prpg.Step() << uint(j)
				}
			}
		}
		for i := range s.Cores {
			perCore[i] = append(perCore[i], blocks[i])
		}
	}
	return perCore
}

// FaultSim runs fault simulation at SOC scope: a fault lives in one core,
// every other core responds fault-free, and responses are assembled into
// the global cell space for the BIST engine. With one core the global
// cell space is the core's own, so the core's responses, blocks and
// failing-cell sets serve as the global ones without a copy.
type FaultSim struct {
	soc      *SOC
	sims     []*sim.FaultSim
	patterns [][]*sim.Block
	good     []*sim.Response // global good responses per block
	shape    []*sim.Block    // global-shaped blocks (N only) for the engine
}

// NewFaultSim simulates all cores' fault-free machines over the pattern
// set.
func NewFaultSim(s *SOC, patterns [][]*sim.Block) (*FaultSim, error) {
	if len(patterns) != len(s.Cores) {
		return nil, fmt.Errorf("soc %s: %d pattern lists for %d cores", s.Name, len(patterns), len(s.Cores))
	}
	fs := &FaultSim{soc: s, patterns: patterns}
	for i, c := range s.Cores {
		fs.sims = append(fs.sims, sim.NewFaultSim(c.Circuit, patterns[i]))
	}
	fs.assemble()
	return fs, nil
}

// oneCore reports whether the global cell space is core 0's own.
func (fs *FaultSim) oneCore() bool { return len(fs.sims) == 1 }

// assemble derives the global good responses and the engine-shaped
// blocks from the per-core simulators. One core's are used as they are.
func (fs *FaultSim) assemble() {
	if fs.oneCore() {
		core := fs.sims[0]
		fs.shape = core.Blocks()
		for bi := range fs.shape {
			fs.good = append(fs.good, core.Good(bi))
		}
		return
	}
	for bi, b := range fs.patterns[0] {
		g := &sim.Response{Next: make([]uint64, fs.soc.total)}
		for i := range fs.sims {
			lo, _ := fs.soc.CellRange(i)
			copy(g.Next[lo:], fs.sims[i].Good(bi).Next)
		}
		fs.good = append(fs.good, g)
		fs.shape = append(fs.shape, &sim.Block{N: b.N})
	}
}

// SOC returns the simulated system.
func (fs *FaultSim) SOC() *SOC { return fs.soc }

// Fork returns a FaultSim sharing the pattern set and cached fault-free
// responses (read-only) with per-core scratch simulators of its own, for
// concurrent fault injection — one Fork per goroutine.
func (fs *FaultSim) Fork() *FaultSim {
	forked := &FaultSim{
		soc:      fs.soc,
		patterns: fs.patterns,
		good:     fs.good,
		shape:    fs.shape,
	}
	for _, s := range fs.sims {
		forked.sims = append(forked.sims, s.Fork())
	}
	return forked
}

// Good returns the global fault-free responses per block.
func (fs *FaultSim) Good() []*sim.Response { return fs.good }

// Blocks returns global-shaped blocks (pattern counts only) suitable for
// bist.Engine.Verdicts.
func (fs *FaultSim) Blocks() []*sim.Block { return fs.shape }

// NumPatterns returns the pattern count.
func (fs *FaultSim) NumPatterns() int {
	n := 0
	for _, b := range fs.shape {
		n += b.N
	}
	return n
}

// CoreFaults returns the collapsed stuck-at fault list of core i.
func (fs *FaultSim) CoreFaults(i int) []sim.Fault {
	c := fs.soc.Cores[i].Circuit
	return sim.CollapseFaults(c, sim.FullFaultList(c))
}

// Result is the SOC-scope outcome of one core fault.
type Result struct {
	Core         int
	Fault        sim.Fault
	FailingCells *bitset.Set     // global cell indices
	Faulty       []*sim.Response // global responses per block
}

// Detected reports whether any scan cell captured an error.
func (r *Result) Detected() bool { return !r.FailingCells.Empty() }

// Run injects fault f into core i and assembles the global responses:
// the faulty core's captured values replace its segment, every other
// segment stays fault-free.
func (fs *FaultSim) Run(core int, f sim.Fault) *Result {
	return fs.RunMulti(map[int]sim.Fault{core: f})
}

// Scratch holds the reusable buffers for one worker's pooled SOC fault
// loop: global responses pre-seeded with the fault-free values, per-core
// simulation scratch, and a reusable Result. Use one Scratch per
// goroutine; a Result returned by RunInto aliases the Scratch and is
// overwritten by the next call. A one-core Scratch holds no global
// buffers: its Results alias the core's scratch.
type Scratch struct {
	faulty   []*sim.Response
	cores    []*sim.Scratch
	res      Result
	lastCore int
}

// NewScratch allocates the reusable buffers for RunInto.
func (fs *FaultSim) NewScratch() *Scratch {
	sc := &Scratch{lastCore: -1}
	for _, s := range fs.sims {
		sc.cores = append(sc.cores, s.NewScratch())
	}
	if fs.oneCore() {
		// The core's result buffers are the global ones: bind them once.
		r := sc.cores[0].Result()
		sc.res.FailingCells, sc.res.Faulty = r.FailingCells, r.Faulty
		return sc
	}
	for bi := range fs.good {
		r := &sim.Response{Next: make([]uint64, fs.soc.total)}
		copy(r.Next, fs.good[bi].Next)
		sc.faulty = append(sc.faulty, r)
	}
	sc.res.FailingCells = bitset.New(fs.soc.total)
	return sc
}

// RunInto is the pooled equivalent of Run: it reuses the Scratch's global
// responses instead of allocating fresh ones per fault. Only the segment
// of the previously faulty core needs restoring to fault-free values
// before the new core's captured values are spliced in.
func (fs *FaultSim) RunInto(core int, f sim.Fault, sc *Scratch) *Result {
	return fs.spliceLocal(core, fs.sims[core].RunInto(f, sc.cores[core]), sc)
}

// spliceLocal assembles a core-local simulation result into the scratch's
// global cell space: the previously faulty core's segment is rewound to
// fault-free values, the local captured values replace the core's segment,
// and the failing cells are lifted to global indices. With one core the
// local result already is the global one: the Scratch's Result is bound
// to the core's buffers (NewScratch), so nothing is copied.
func (fs *FaultSim) spliceLocal(core int, local *sim.Result, sc *Scratch) *Result {
	if fs.oneCore() {
		sc.res.Core, sc.res.Fault = core, local.Fault
		return &sc.res
	}
	if last := sc.lastCore; last >= 0 && last != core {
		llo, lhi := fs.soc.CellRange(last)
		for bi := range sc.faulty {
			copy(sc.faulty[bi].Next[llo:lhi], fs.good[bi].Next[llo:lhi])
		}
	}
	lo, _ := fs.soc.CellRange(core)
	for bi := range sc.faulty {
		copy(sc.faulty[bi].Next[lo:], local.Faulty[bi].Next)
	}
	sc.lastCore = core
	sc.res.Core, sc.res.Fault, sc.res.Faulty = core, local.Fault, sc.faulty
	sc.res.FailingCells.Reset()
	local.FailingCells.ForEach(func(cell int) { sc.res.FailingCells.Add(lo + cell) })
	return &sc.res
}

// PlanCoreBatches schedules faults of core i into batches for the
// fault-parallel engine: cone-disjoint within each 64-lane plane, with
// opt.MaxLanes (up to sim.MaxBatchLanes) choosing how many planes the
// wide-word kernel runs per batch. The plan is immutable and shared
// across forks; pair it with NewCoreBatchScratch per worker, which sizes
// its scratch for the plan's plane count.
func (fs *FaultSim) PlanCoreBatches(core int, faults []sim.Fault, opt sim.BatchOptions) *sim.BatchPlan {
	return sim.PlanBatches(fs.soc.Cores[core].Circuit, faults, opt)
}

// NewCoreBatchScratch allocates the batch evaluation scratch for one
// worker's sweeps over core i's plan.
func (fs *FaultSim) NewCoreBatchScratch(core int, p *sim.BatchPlan) *sim.BatchScratch {
	return fs.sims[core].NewBatchScratch(p)
}

// RunBatch evaluates one compiled batch of core i's plan; members are read
// back with MaterializeBatch.
func (fs *FaultSim) RunBatch(core int, cb *sim.CompiledBatch, bs *sim.BatchScratch) {
	fs.sims[core].RunBatch(cb, bs)
}

// RunBatchContext is RunBatch with cancellation, delegating to the core
// simulator's block-granular context checks; see sim.RunBatchContext for
// the scratch-reuse guarantee after an aborted run.
func (fs *FaultSim) RunBatchContext(ctx context.Context, core int, cb *sim.CompiledBatch, bs *sim.BatchScratch) error {
	return fs.sims[core].RunBatchContext(ctx, cb, bs)
}

// MaterializeBatch assembles member k of the last RunBatch into the global
// cell space, exactly as RunInto would have produced for that fault alone.
// The Result aliases the Scratch, like RunInto's.
func (fs *FaultSim) MaterializeBatch(core int, bs *sim.BatchScratch, k int, sc *Scratch) *Result {
	return fs.spliceLocal(core, fs.sims[core].MaterializeBatch(bs, k, sc.cores[core]), sc)
}

// RunMulti injects one fault into each of several cores simultaneously —
// the multi-faulty-core variant of the paper's Figure 2 scenario: each
// defective core contributes its own clustered failing segment to the meta
// chain. The Result's Core and Fault fields describe the lowest-indexed
// faulty core.
func (fs *FaultSim) RunMulti(coreFaults map[int]sim.Fault) *Result {
	if len(coreFaults) == 0 {
		panic("soc: RunMulti with no faults")
	}
	if f, ok := coreFaults[0]; ok && fs.oneCore() {
		res := fs.sims[0].Run(f)
		return &Result{Core: 0, Fault: f, FailingCells: res.FailingCells, Faulty: res.Faulty}
	}
	out := &Result{Core: -1, FailingCells: bitset.New(fs.soc.total)}
	for bi := range fs.good {
		r := &sim.Response{Next: make([]uint64, fs.soc.total)}
		copy(r.Next, fs.good[bi].Next)
		out.Faulty = append(out.Faulty, r)
	}
	for core := 0; core < len(fs.soc.Cores); core++ {
		f, ok := coreFaults[core]
		if !ok {
			continue
		}
		if out.Core < 0 {
			out.Core, out.Fault = core, f
		}
		res := fs.sims[core].Run(f)
		lo, _ := fs.soc.CellRange(core)
		for _, cell := range res.FailingCells.Elems() {
			out.FailingCells.Add(lo + cell)
		}
		for bi := range out.Faulty {
			copy(out.Faulty[bi].Next[lo:], res.Faulty[bi].Next)
		}
	}
	return out
}

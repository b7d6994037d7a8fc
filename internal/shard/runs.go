package shard

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/chaindiag"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// This file is the coordinator's user-facing surface: one method per
// sweep kind, each of which plans shards, dispatches them through the
// pool, and merges the verdict deltas back into exactly the values the
// single-process sweep produces. Merging is slot-major (global fault
// index order), so the study totals, the observe callback sequence, and
// the per-fault results are bit-identical for every shard and worker
// count; only wall-clock differs.

// planJobs splits work units into cost-balanced shards and builds one
// job per shard from proto, numbering IDs from baseID+1 so a multi-core
// run's jobs stay distinct. payload, when non-nil, fills the job's
// per-unit lists from the shard's global unit indices.
func planJobs(proto codec.ShardJob, costs []int, shards, baseID int, payload func(job *codec.ShardJob, units []int)) []*codec.ShardJob {
	plan := PlanShards(costs, shards)
	jobs := make([]*codec.ShardJob, len(plan))
	for j, sh := range plan {
		job := proto
		job.ID = uint64(baseID + j + 1)
		job.Indices = make([]uint32, len(sh.Indices))
		for k, u := range sh.Indices {
			job.Indices[k] = uint32(u)
		}
		if payload != nil {
			payload(&job, sh.Indices)
		}
		jobs[j] = &job
	}
	return jobs
}

// mergeDiagnoses scatters completed shards' deltas into per-fault slots
// and accumulates the batch-plan shape across shards. Failed shards
// leave nil slots.
func mergeDiagnoses(faults []sim.Fault, results []*codec.ShardResult) (slots []*core.FaultDiagnosis, batches int, capacity float64) {
	slots = make([]*core.FaultDiagnosis, len(faults))
	for _, res := range results {
		if res == nil {
			continue
		}
		batches += int(res.PlanBatches)
		capacity += float64(res.PlanBatches) * float64(res.LaneCap)
		for i := range res.Diagnoses {
			d := &res.Diagnoses[i]
			slots[d.Index] = diagnosisFromWire(faults[d.Index], d)
		}
	}
	return slots, batches, capacity
}

// stampMerged installs the aggregated plan shape on a merged study:
// PlanBatches sums the shards' schedules, PlanFill is observed faults
// over summed lane capacity — the same fill a single plan of that shape
// would report.
func stampMerged(study *core.Study, batches int, capacity float64) {
	study.PlanBatches = batches
	if capacity > 0 {
		study.PlanFill = float64(study.Completeness.Observed) / capacity
	}
}

// RunCircuit runs the sharded equivalent of CircuitBench.RunObserved:
// the circuit ref (ProfileRef or BenchFileRef) names a one-core device,
// and the sweep is RunSOCCore on its core 0.
func (c *Coordinator) RunCircuit(ctx context.Context, ref codec.DeviceRef, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
	return c.RunSOCCore(ctx, ref, 0, o, faults, costs, observe)
}

// RunSOCCore runs the sharded equivalent of one core's observed sweep:
// the fault list is split into cost-balanced shards, each dispatched as
// a compact descriptor (device ref + options + fault subset), and the
// deltas are merged slot-major. costs weighs each fault for the planner
// (StuckAtCosts; nil falls back to uniform). The worker builds the
// bench the ref names — the full SOC (TestRail, meta chains) for a
// preset, the circuit's one-core device for a circuit ref — so verdicts
// match the single-process sweep. On a partial failure the returned
// study aggregates the completed shards — a sound degraded subset,
// Completeness recording the gap — alongside the error.
func (c *Coordinator) RunSOCCore(ctx context.Context, ref codec.DeviceRef, coreIdx int, o core.Options, faults []sim.Fault, costs []int, observe func(*core.FaultDiagnosis)) (*core.Study, error) {
	studies, err := c.RunSOC(ctx, ref, o, map[int][]sim.Fault{coreIdx: faults}, map[int][]int{coreIdx: costs}, func(_ int, fd *core.FaultDiagnosis) {
		if observe != nil {
			observe(fd)
		}
	})
	if study := studies[coreIdx]; study != nil {
		return study, err
	}
	return nil, err
}

// RunSOC shards several cores' fault lists in one dispatch wave, so a
// pool of workers stays busy across core boundaries instead of draining
// at the tail of each core. coreFaults maps core index to its fault
// list; coreCosts may be nil or sparse (uniform fallback per core).
// Merging is per core, slot-major within each; observe is called core
// by core in ascending core order, matching a sequential per-core sweep.
// The returned map holds one study per requested core.
func (c *Coordinator) RunSOC(ctx context.Context, ref codec.DeviceRef, o core.Options, coreFaults map[int][]sim.Fault, coreCosts map[int][]int, observe func(coreIdx int, fd *core.FaultDiagnosis)) (map[int]*core.Study, error) {
	spec, knobs, err := optionsToWire(o)
	if err != nil {
		return nil, err
	}
	cores := make([]int, 0, len(coreFaults))
	for ci := range coreFaults {
		cores = append(cores, ci)
	}
	sort.Ints(cores)
	var jobs []*codec.ShardJob
	for _, ci := range cores {
		faults := coreFaults[ci]
		costs := coreCosts[ci]
		if costs == nil {
			costs = UniformCosts(len(faults))
		}
		if len(costs) != len(faults) {
			return nil, fmt.Errorf("shard: core %d: %d costs for %d faults", ci, len(costs), len(faults))
		}
		proto := codec.ShardJob{Kind: codec.JobStuckAt, Device: ref, Core: int32(ci), Spec: spec, Knobs: knobs}
		jobs = append(jobs, planJobs(proto, costs, c.shardCount(), len(jobs), func(job *codec.ShardJob, units []int) {
			sub := make([]sim.Fault, len(units))
			for k, fi := range units {
				sub[k] = faults[fi]
			}
			job.FaultHash = pipeline.FaultSetHash(sub)
			job.Faults = faultsToWire(sub)
		})...)
	}
	results, runErr := c.run(ctx, jobs)

	studies := make(map[int]*core.Study, len(cores))
	for _, ci := range cores {
		var own []*codec.ShardResult
		for j, res := range results {
			if jobs[j].Core == int32(ci) {
				own = append(own, res)
			}
		}
		slots, batches, capacity := mergeDiagnoses(coreFaults[ci], own)
		study := core.MergeObserved(o, o.Scheme.Name(), slots, func(fd *core.FaultDiagnosis) {
			if observe != nil {
				observe(ci, fd)
			}
		})
		stampMerged(study, batches, capacity)
		studies[ci] = study
	}
	return studies, runErr
}

// RunChain shards the chain-diagnosis injection sweep: injections
// 0..n-1, where injection i plants ChainFault{Position: i/2, Stuck:
// i%2} — exactly chaindiag's sweep numbering. order is the scan order
// under test and must cover every cell (chaindiag.NewDevice requires
// it). The returned slice has one entry per injection; nil entries mark
// injections whose shard failed.
func (c *Coordinator) RunChain(ctx context.Context, ref codec.DeviceRef, order []int, n int) ([]*chaindiag.Outcome, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("shard: chain sweep requires an explicit scan order")
	}
	o := core.Options{Scheme: partition.FixedInterval{}, ScanOrder: order}
	spec, knobs, err := optionsToWire(o)
	if err != nil {
		return nil, err
	}
	proto := codec.ShardJob{Kind: codec.JobChain, Device: ref, Core: -1, Spec: spec, Knobs: knobs}
	jobs := planJobs(proto, UniformCosts(n), c.shardCount(), 0, nil)
	results, runErr := c.run(ctx, jobs)
	out := make([]*chaindiag.Outcome, n)
	for _, res := range results {
		if res == nil {
			continue
		}
		for i := range res.Chains {
			co := &res.Chains[i]
			out[co.Index] = &chaindiag.Outcome{Located: co.Located, Exact: co.Exact, Cands: int(co.Cands)}
		}
	}
	return out, runErr
}

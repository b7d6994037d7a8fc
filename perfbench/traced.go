package main

import (
	"context"

	"repro/internal/bist"
	"repro/internal/bitset"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/partition"
	"repro/internal/pipeline"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
)

// engineSet is what a sweep needs beyond the simulator: the BIST engine,
// its diagnoser, and the fault-free responses the verdicts compare to.
type engineSet struct {
	eng    *bist.Engine
	diag   *diagnosis.Diagnoser
	good   []*sim.Response
	blocks []*sim.Block
}

// timedScheme wraps the scheme handed to bist.NewEngine so the traced run
// sees the partition layer, interval seed search included, as its own
// span inside bist.engine.
type timedScheme struct {
	partition.Scheme
	tr     *tracer
	parent int64
}

func (s timedScheme) Partitions(n, b, k int) ([]partition.Partition, error) {
	sp := s.tr.open(s.parent, "partition.seed_search")
	defer s.tr.close(sp)
	return s.Scheme.Partitions(n, b, k)
}

// buildEngine mirrors the artifact cache's engine build (bist.NewEngine,
// diagnosis.FromEngine, GoldenSignatures) with a span around each call.
func buildEngine(tr *tracer, parent int64, cfg scan.Config, o core.Options, good []*sim.Response, blocks []*sim.Block) (engineSet, error) {
	sp := tr.open(parent, "bist.engine")
	plan := bist.Plan{Scheme: timedScheme{o.Scheme, tr, sp.id}, Groups: o.Groups, Partitions: o.Partitions}
	eng, err := bist.NewEngine(cfg, plan, o.Patterns)
	tr.close(sp)
	if err != nil {
		return engineSet{}, err
	}
	sp = tr.open(parent, "diagnosis.build")
	diag, err := diagnosis.FromEngine(eng)
	tr.close(sp)
	if err != nil {
		return engineSet{}, err
	}
	sp = tr.open(parent, "bist.golden")
	eng.GoldenSignatures(good, blocks)
	tr.close(sp)
	return engineSet{eng: eng, diag: diag, good: good, blocks: blocks}, nil
}

// lane is one sweep goroutine's simulator fork and scratch for a plan.
type lane struct {
	run         func(ctx context.Context, cb *sim.CompiledBatch) error
	materialize func(k int) (sim.Fault, *bitset.Set, []*sim.Response)
}

func circuitLanes(fs *sim.FaultSim) func(*sim.BatchPlan) lane {
	return func(plan *sim.BatchPlan) lane {
		f := fs.Fork()
		bs := f.NewBatchScratch(plan)
		sc := f.NewScratch()
		return lane{
			run: func(ctx context.Context, cb *sim.CompiledBatch) error { return f.RunBatchContext(ctx, cb, bs) },
			materialize: func(k int) (sim.Fault, *bitset.Set, []*sim.Response) {
				r := f.MaterializeBatch(bs, k, sc)
				return r.Fault, r.FailingCells, r.Faulty
			},
		}
	}
}

func socLanes(fs *soc.FaultSim, core int) func(*sim.BatchPlan) lane {
	return func(plan *sim.BatchPlan) lane {
		f := fs.Fork()
		bs := f.NewCoreBatchScratch(core, plan)
		sc := f.NewScratch()
		return lane{
			run: func(ctx context.Context, cb *sim.CompiledBatch) error { return f.RunBatchContext(ctx, core, cb, bs) },
			materialize: func(k int) (sim.Fault, *bitset.Set, []*sim.Response) {
				r := f.MaterializeBatch(core, bs, k, sc)
				return r.Fault, r.FailingCells, r.Faulty
			},
		}
	}
}

// tracedUnit is one study of a traced iteration.
type tracedUnit struct {
	name    string
	opts    core.Options
	engines engineSet
	circuit *circuit.Circuit // the circuit (or SOC core) the faults sit in
	faults  []sim.Fault
	newLane func(*sim.BatchPlan) lane
}

// tracedSweep reproduces core's batch loop — plan, fork, batch scratch,
// RunBatchContext, then per fault MaterializeBatch, VerdictsInto,
// DiagnoseRobust and CandidateCounts — on a pipeline.Executor with the
// sweep's worker count, and merges the diagnoses with core.MergeObserved.
// counts accumulates the sweep's layer counters.
func tracedSweep(ctx context.Context, tr *tracer, parent int64, planCache *pipeline.ArtifactCache, u tracedUnit, counts map[string]float64) (*core.Study, error) {
	sp := tr.open(parent, "sim.schedule")
	plan := planCache.Plan(u.circuit, u.faults, sim.BatchOptions{MaxLanes: u.opts.Lanes})
	tr.close(sp)
	es := u.engines
	results := make([]*core.FaultDiagnosis, len(u.faults))
	ex := tr.open(parent, "pipeline.executor")
	err := pipeline.Executor{Workers: u.opts.Workers}.RunBatchesContext(ctx, len(plan.Batches), func() func(int) error {
		ln := u.newLane(plan)
		v := es.eng.NewVerdicts()
		partCounts := make([]int, u.opts.Partitions)
		return func(pi int) error {
			job := tr.open(ex.id, "pipeline.job")
			defer tr.close(job)
			cb := plan.Batches[pi]
			sp := tr.open(job.id, "sim.kernel")
			err := ln.run(ctx, cb)
			tr.close(sp)
			if err != nil {
				return err
			}
			for k, i := range cb.Index {
				sp := tr.open(job.id, "sim.materialize")
				f, actual, faulty := ln.materialize(k)
				tr.close(sp)
				fd := &core.FaultDiagnosis{Fault: f, Actual: actual.Clone(), Detected: !actual.Empty()}
				if fd.Detected {
					sp = tr.open(job.id, "bist.verdicts")
					es.eng.VerdictsInto(es.good, faulty, es.blocks, v)
					tr.close(sp)
					sp = tr.open(job.id, "diagnosis.prune")
					fd.Result = es.diag.DiagnoseRobust(v, u.opts.VoteThreshold)
					tr.close(sp)
					sp = tr.open(job.id, "diagnosis.counts")
					es.diag.CandidateCounts(v, partCounts)
					tr.close(sp)
					fd.CandidatesByPartition = append([]int(nil), partCounts...)
				}
				results[i] = fd
			}
			return nil
		}
	})
	tr.close(ex)
	sp = tr.open(parent, "core.merge")
	study := core.MergeObserved(u.opts, u.opts.Scheme.Name(), results, nil)
	tr.close(sp)

	counts["sim.batches"] += float64(len(plan.Batches))
	counts["sim.fill_x_faults"] += plan.Fill() * float64(len(u.faults))
	counts["sim.plan_faults"] += float64(len(u.faults))
	counts["diagnosis.candidates"] += float64(study.Full.Candidates)
	counts["diagnosis.pruned"] += float64(study.Pruned.Candidates)
	counts["diagnosis.diagnosed"] += float64(study.Diagnosed)
	return study, err
}

package core

import (
	"context"

	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// This file is the context-aware face of the benches: cancellable fault
// sweeps that degrade to a sound partial study, and per-fault diagnosis
// that degrades to a conservative candidate superset when a deadline
// lands mid-session. The context-free APIs in core.go are thin wrappers
// over these with context.Background().

// sweepOptions picks the batch packing for a sweep. A cancellable sweep
// packs faults in list order (sim.BatchOptions.ScanOrder): the executor
// claims batch indices monotonically and drains in-flight claims, so the
// completed diagnoses form a contiguous prefix of the fault list — the
// partial study is a prefix of the full run, bit for bit. An
// uncancellable sweep keeps the cone-aware greedy packing, which fills
// lanes better. The lane cap (Options.Lanes; 0 = engine default) applies
// either way.
func sweepOptions(ctx context.Context, o Options) sim.BatchOptions {
	return sim.BatchOptions{MaxLanes: o.Lanes, ScanOrder: ctx.Done() != nil}
}

// stampPlan records the batch schedule's shape on the study, so CLIs and
// experiments can surface scheduler saturation alongside the results.
func stampPlan(study *Study, plan *sim.BatchPlan) {
	study.PlanBatches = len(plan.Batches)
	study.PlanFill = plan.Fill()
}

// finishStudy aggregates the longest contiguous prefix of completed
// diagnoses into the study and stamps its completeness. Results past the
// first gap (batches cancelled or abandoned mid-flight) are discarded:
// a prefix has a clean meaning — "the sweep ran out of time after fault
// n" — where a gappy subset does not.
func finishStudy(study *Study, results []*FaultDiagnosis, observe func(*FaultDiagnosis)) *Study {
	n := 0
	for n < len(results) && results[n] != nil {
		n++
	}
	for _, fd := range results[:n] {
		if observe != nil {
			observe(fd)
		}
		study.add(fd)
	}
	study.Completeness = diagnosis.Completeness{Observed: n, Scheduled: len(results)}
	return study
}

// RunContext is Run with cancellation: on a context deadline or cancel
// the sweep stops claiming batches, drains the ones in flight, and
// returns the partial study aggregating the contiguous prefix of faults
// it finished (Study.Completeness records how far it got) together with
// ctx's error. A nil error means the study is complete.
func (b *CircuitBench) RunContext(ctx context.Context, faults []sim.Fault) (*Study, error) {
	return b.RunObservedContext(ctx, faults, nil)
}

// RunObservedContext is RunContext with RunObserved's per-fault callback;
// observe sees exactly the faults the study aggregates, in fault order.
func (b *CircuitBench) RunObservedContext(ctx context.Context, faults []sim.Fault, observe func(*FaultDiagnosis)) (*Study, error) {
	return b.dev.RunCoreObservedContext(ctx, 0, faults, observe)
}

// RunCoreContext is RunCore with cancellation; semantics mirror
// RunContext (contiguous fault prefix, completeness stamp, ctx error).
func (b *SOCBench) RunCoreContext(ctx context.Context, core int, faults []sim.Fault) (*Study, error) {
	return b.RunCoreObservedContext(ctx, core, faults, nil)
}

// RunCoreObservedContext is RunCoreContext with a per-fault callback,
// mirroring RunObservedContext: observe sees exactly the faults the
// study aggregates, in fault order. Shard workers use it to capture the
// per-fault diagnoses an SOC shard ships back as verdict deltas.
func (b *SOCBench) RunCoreObservedContext(ctx context.Context, core int, faults []sim.Fault, observe func(*FaultDiagnosis)) (*Study, error) {
	study := newStudy(b.Opts, b.Opts.Scheme.Name())
	results := make([]*FaultDiagnosis, len(faults))
	release := b.Opts.Cache.PinSOC(b.art)
	defer release()
	plan := b.Opts.Cache.Plan(b.SOC.Cores[core].Circuit, faults, sweepOptions(ctx, b.Opts))
	stampPlan(study, plan)
	err := pipeline.Executor{Workers: b.Opts.Workers, Retry: b.Opts.Retry.Policy()}.RunBatchesContext(ctx, len(plan.Batches), func() func(int) error {
		fs := b.fs.Fork()
		bs := fs.NewCoreBatchScratch(core, plan)
		sc := fs.NewScratch()
		w := newDiagWorker(b.Opts, b.art.Engine, b.art.Diag, fs.Good(), fs.Blocks())
		return func(pi int) error {
			cb := plan.Batches[pi]
			lane := -1
			defer annotatePanic(&lane, cb, b.SOC.Cores[core].Circuit)
			if err := fs.RunBatchContext(ctx, core, cb, bs); err != nil {
				return err
			}
			for k, i := range cb.Index {
				lane = k
				res := fs.MaterializeBatch(core, bs, k, sc)
				results[i] = w.diagnose(res.Fault, res.FailingCells, res.Detected(), res.Faulty)
			}
			return nil
		}
	})
	return finishStudy(study, results, observe), err
}

// annotatePanic re-raises a panic unwinding out of a batch job wrapped in
// a pipeline.JobPanic carrying the batch lane and fault identity, so the
// executor's WorkerError can report which fault's diagnosis blew up.
func annotatePanic(lane *int, cb *sim.CompiledBatch, c *circuit.Circuit) {
	if r := recover(); r != nil {
		detail := ""
		if *lane >= 0 && *lane < len(cb.Faults) {
			detail = cb.Faults[*lane].Describe(c)
		}
		panic(&pipeline.JobPanic{Lane: *lane, Detail: detail, Value: r})
	}
}

// DiagnoseFaultContext is DiagnoseFault with a deadline: verdicts are
// collected partition by partition (bist.VerdictsUpTo) and a context
// ending mid-collection degrades to a diagnosis over the observed prefix
// — a sound, conservative superset of the full candidate set, because
// each further partition only ever removes candidates. The returned
// FaultDiagnosis carries Completeness (partitions observed / scheduled)
// and CandidatesByPartition truncated to the observed prefix; the ctx
// error is returned alongside it. Degraded collection models a perfect
// tester; with a noise model configured the full noisy flow runs if the
// context is still alive at entry.
func (b *CircuitBench) DiagnoseFaultContext(ctx context.Context, f sim.Fault) (*FaultDiagnosis, error) {
	return b.dev.DiagnoseFaultContext(ctx, 0, f)
}

// DiagnoseFaultContext mirrors CircuitBench.DiagnoseFaultContext for a
// fault injected into one core of the SOC.
func (b *SOCBench) DiagnoseFaultContext(ctx context.Context, core int, f sim.Fault) (*FaultDiagnosis, error) {
	res := b.fs.Run(core, f)
	return diagnosePartial(ctx, b.Opts, b.art.Engine, b.art.Diag, b.fs.Good(), b.fs.Blocks(),
		&FaultDiagnosis{Fault: res.Fault, Actual: res.FailingCells, Detected: res.Detected()}, res.Faulty)
}

// diagnosePartial is diagnoseFault's deadline-aware twin, behind
// DiagnoseFaultContext.
func diagnosePartial(ctx context.Context, o Options, eng *bist.Engine, diag *diagnosis.Diagnoser, good []*sim.Response, blocks []*sim.Block, fd *FaultDiagnosis, faulty []*sim.Response) (*FaultDiagnosis, error) {
	fd.Completeness = diagnosis.Completeness{Observed: o.Partitions, Scheduled: o.Partitions}
	if !fd.Detected {
		return fd, ctx.Err()
	}
	if o.Noise.Enabled() {
		// The noisy flow already runs every session Retry.Runs() times and
		// votes; a deadline fine enough to split it is not modelled, so it
		// is all-or-nothing on the context state at entry.
		if err := ctx.Err(); err != nil {
			fd.Completeness.Observed = 0
			fd.Result = diag.DiagnosePartial(eng.NewVerdicts(), 0)
			return fd, err
		}
		diagnoseFault(o, eng, diag, good, blocks, faulty, fd)
		return fd, nil
	}
	v := eng.NewVerdicts()
	k, err := eng.VerdictsUpTo(ctx, good, faulty, blocks, v)
	fd.Completeness.Observed = k
	fd.Result = diag.DiagnosePartial(v, k)
	fd.CandidatesByPartition = make([]int, k)
	for i := 1; i <= k; i++ {
		fd.CandidatesByPartition[i-1] = diag.Candidates(v, i).Len()
	}
	return fd, err
}

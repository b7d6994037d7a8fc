package bist

import (
	"context"

	"repro/internal/retry"
	"repro/internal/sim"
)

// This file holds the engine's resilience surface: deadline-aware
// partition-by-partition verdict collection (the substrate of degraded-
// mode diagnosis) and the bridge from the session RetryPolicy to the
// repository-wide retry.Policy vocabulary.

// Policy expresses the session retry schedule in the shared
// internal/retry vocabulary: one attempt plus MaxRetries re-executions,
// with no backoff (session re-execution is not a load-shedding wait).
// The pipeline executor consumes the same Policy type for transient job
// failures, so PR 1's session-abort retries and the executor's worker
// retries are two callers of one policy abstraction. The voting
// semantics of NoisyVerdicts are unchanged: the policy only fixes how
// many executions are scheduled.
func (rp RetryPolicy) Policy() retry.Policy {
	return retry.Policy{MaxAttempts: rp.Runs()}
}

// VerdictsUpTo collects session verdicts partition by partition,
// checking ctx between partitions, and returns the number of partitions
// observed. A cancellation or deadline mid-collection leaves v holding
// the completed prefix (later rows are all-pass/no-signature) and
// returns that prefix length with ctx's error; the caller degrades to a
// prefix diagnosis (diagnosis.DiagnosePartial), which is sound because
// partition intersection only ever shrinks the candidate set.
//
// The verdicts are folded once by VerdictsInto; the per-partition ctx
// poll then decides how many rows of them the tester observed, the way
// a deadline would land between sessions on a real tester. For a fully
// observed run the verdicts therefore equal Verdicts bit-for-bit.
func (e *Engine) VerdictsUpTo(ctx context.Context, good, faulty []*sim.Response, blocks []*sim.Block, v *Verdicts) (int, error) {
	e.VerdictsInto(good, faulty, blocks, v)
	for t := 0; t < e.plan.Partitions; t++ {
		if err := ctx.Err(); err != nil {
			for u := t; u < e.plan.Partitions; u++ {
				clear(v.Fail[u])
				clear(v.ErrSig[u])
			}
			return t, err
		}
	}
	return e.plan.Partitions, nil
}

// MemoryFootprint estimates the bytes of read-only state the engine
// retains: the syndrome table (one word per shift clock of the session)
// and the per-chain partition maps. Feeds the pipeline cache's
// cost-accounted eviction.
func (e *Engine) MemoryFootprint() int64 {
	const word = 8
	n := int64(len(e.xp)+len(e.chainOf)+len(e.posOf)) * word
	for _, chain := range e.parts {
		for _, p := range chain {
			n += int64(len(p.GroupOf)) * word
		}
	}
	return n
}

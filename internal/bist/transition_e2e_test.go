package bist

import (
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

// TestTransitionDiagnosisEndToEnd: transition faults also produce clustered
// failing cells, so the partition-based diagnosis applies unchanged — run
// the full flow, simulated through the batched transition path, against
// the two-cycle good reference.
func TestTransitionDiagnosisEndToEnd(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	blocks := GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), 128)
	fs := sim.NewFaultSim(c, blocks)
	good := fs.TwoCycleGood()

	eng, err := NewEngine(scan.SingleChain(c.NumDFFs()), Plan{
		Scheme: partition.TwoStep{}, Groups: 4, Partitions: 8, Ideal: true,
	}, 128)
	if err != nil {
		t.Fatal(err)
	}
	var faults []sim.TransitionFault
	for id := 0; id < c.NumNets(); id += 11 {
		faults = append(faults, sim.TransitionFault{Net: circuit.NetID(id), SlowToRise: true})
	}
	plan := sim.PlanTransitionBatches(c, faults, sim.BatchOptions{})
	diagnosed := 0
	fs.RunPlan(plan, func(i int, res *sim.Result) {
		f := faults[i]
		if !res.Detected() {
			return
		}
		diagnosed++
		v := eng.Verdicts(good, res.Faulty, blocks)
		if v.NumFailing() == 0 {
			t.Fatalf("%s: detected but no session failed", f.Describe(c))
		}
		// Ideal-mode intersection candidates must contain the failing cells.
		d := make(map[int]bool)
		for _, cell := range res.FailingCells.Elems() {
			d[cell] = true
		}
		parts := eng.ChainPartitions(0)
		for cell := range d {
			for pt := range parts {
				if !v.Fail[pt][parts[pt].GroupOf[cell]] {
					t.Fatalf("%s: failing cell %d's group passed partition %d", f.Describe(c), cell, pt)
				}
			}
		}
	})
	if diagnosed == 0 {
		t.Fatal("nothing diagnosed")
	}
}

package sim

import (
	"math/rand"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/logic"
)

func TestTransitionFaultList(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	faults := TransitionFaultList(c)
	if len(faults) != 2*c.NumNets() {
		t.Errorf("got %d transition faults for %d nets", len(faults), c.NumNets())
	}
	if faults[0].Describe(c) == "" {
		t.Error("empty description")
	}
}

// TestTransitionForceSemantics checks the per-bit delay-fault algebra.
func TestTransitionForceSemantics(t *testing.T) {
	// slow-to-rise: 0->1 transitions revert to 0; everything else passes.
	if transitionForce(0b1100, 0b1010, true) != 0b1000 {
		t.Errorf("slow-to-rise force wrong: %b", transitionForce(0b1100, 0b1010, true))
	}
	// slow-to-fall: 1->0 transitions revert to 1.
	if transitionForce(0b1100, 0b1010, false) != 0b1110 {
		t.Errorf("slow-to-fall force wrong: %b", transitionForce(0b1100, 0b1010, false))
	}
}

// TestHandCircuitTransition verifies the LOC behaviour on a circuit small
// enough to reason about: a toggling flip-flop (q' = NOT(q)) with a
// slow-to-rise fault on its D net.
func TestHandCircuitTransition(t *testing.T) {
	b := circuit.NewBuilder("toggle")
	b.Input("en").Output("z")
	b.DFF("q", "d")
	b.Gate("d", logic.OpNot, "q")
	b.Gate("z", logic.OpBuf, "q")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	d, _ := c.NetByName("d")
	// The toggling register makes d alternate between cycles: scanning in
	// q=1 gives d=0 in cycle 1 and d=1 in cycle 2 (a rise at d); scanning
	// in q=0 gives the fall.
	run := func(q0 uint64, f *TransitionFault) uint64 {
		blk := &Block{N: 1, PI: []uint64{0}, State: []uint64{q0}}
		r := newResponse(c)
		s.runTwoCycle(blk, f, r)
		return r.Next[0] & 1
	}
	str := &TransitionFault{Net: d, SlowToRise: true}
	// q0=1: d rises 0->1 in cycle 2; slow-to-rise holds it at 0.
	if good, bad := run(1, nil), run(1, str); good != 1 || bad != 0 {
		t.Errorf("rising case: good=%d bad=%d, want 1/0", good, bad)
	}
	// q0=0: d falls 1->0 in cycle 2; slow-to-rise does not matter.
	if good, bad := run(0, nil), run(0, str); good != bad {
		t.Errorf("falling case perturbed by slow-to-rise: %d vs %d", good, bad)
	}
	stf := &TransitionFault{Net: d, SlowToRise: false}
	// q0=0: the fall is held at 1.
	if good, bad := run(0, nil), run(0, stf); good != 0 || bad != 1 {
		t.Errorf("falling case: good=%d bad=%d, want 0/1", good, bad)
	}
}

// TestTransitionWithinStuckAtCone: under launch-off-capture with a
// fault-free launch cycle, the delay fault's effect originates at its net
// in the capture cycle only, so the net's stuck-at cone bounds the failing
// cells.
func TestTransitionWithinStuckAtCone(t *testing.T) {
	c := benchgen.MustGenerate("s953")
	rng := rand.New(rand.NewSource(131))
	blocks := []*Block{randomBlock(c, 64, rng)}
	fs := NewFaultSim(c, blocks)
	count := 0
	for id := 0; id < c.NumNets() && count < 60; id += 7 {
		f := TransitionFault{Net: circuit.NetID(id), SlowToRise: id%2 == 0}
		res := fs.RunTransitionReference(f)
		if !res.Detected() {
			continue
		}
		count++
		cone := map[int]bool{}
		for _, cell := range c.ConeCells(f.Net) {
			cone[cell] = true
		}
		for _, cell := range res.FailingCells.Elems() {
			if !cone[cell] {
				t.Fatalf("%s: failing cell %d outside cone", f.Describe(c), cell)
			}
		}
	}
	if count == 0 {
		t.Fatal("no detected transition faults")
	}
}

package codec

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/sim"
	"repro/internal/soc"
)

// Every payload opens with a device stamp naming the netlist and its
// dimensions. The artifact store's content keys already bind an entry to
// a circuit fingerprint, so the stamp is a belt-and-braces check that
// catches wiring bugs (an artifact fetched under the wrong key) with a
// clear error instead of a downstream bounds panic.

func stampCircuit(w *writer, c *circuit.Circuit) {
	w.str(c.Name)
	w.u32(uint32(c.NumNets()))
	w.u32(uint32(c.NumInputs()))
	w.u32(uint32(c.NumOutputs()))
	w.u32(uint32(c.NumDFFs()))
}

func checkCircuitStamp(r *reader, c *circuit.Circuit) {
	name := r.str()
	nets, ins := r.u32(), r.u32()
	outs, dffs := r.u32(), r.u32()
	if r.err != nil {
		return
	}
	if name != c.Name || int(nets) != c.NumNets() || int(ins) != c.NumInputs() ||
		int(outs) != c.NumOutputs() || int(dffs) != c.NumDFFs() {
		r.fail("artifact is for circuit %s (%d nets, %d/%d/%d PI/PO/DFF), not %s (%d nets, %d/%d/%d)",
			name, nets, ins, outs, dffs,
			c.Name, c.NumNets(), c.NumInputs(), c.NumOutputs(), c.NumDFFs())
	}
}

// encodeLayerBody writes the fault-free layer of one circuit: per block,
// the valid-pattern count and the net-value row.
func encodeLayerBody(w *writer, fs *sim.FaultSim) {
	ns, goodVals := fs.LayerSnapshot()
	w.u32(uint32(len(ns)))
	for bi, n := range ns {
		w.u8(uint8(n))
		w.words(goodVals[bi])
	}
}

// decodeLayerBody reads one circuit's layer and reconstructs its FaultSim.
func decodeLayerBody(r *reader, c *circuit.Circuit) *sim.FaultSim {
	nb := r.count(1 + 8*c.NumNets())
	ns := make([]int, 0, nb)
	goodVals := make([][]uint64, 0, nb)
	for bi := 0; bi < nb && r.err == nil; bi++ {
		ns = append(ns, int(r.u8()))
		goodVals = append(goodVals, r.wordRow(c.NumNets()))
	}
	if r.err != nil {
		return nil
	}
	fs, err := sim.NewFaultSimFromLayer(c, ns, goodVals)
	if err != nil {
		r.fail("%v", err)
		return nil
	}
	return fs
}

// EncodeCones snapshots every memoized fault-site cone of c, returning
// the sealed artifact and the number of cones it carries. Iteration is in
// site order, so equal memoization states encode to equal bytes.
func EncodeCones(c *circuit.Circuit) ([]byte, int) {
	w := &writer{}
	stampCircuit(w, c)
	n := 0
	var body writer
	c.MemoizedCones(func(site circuit.NetID, cone *circuit.Cone) {
		n++
		body.u32(uint32(site))
		body.u32(uint32(len(cone.Nets)))
		for _, id := range cone.Nets {
			body.u32(uint32(id))
		}
		body.u32(uint32(len(cone.Cells)))
		for _, ci := range cone.Cells {
			body.u32(uint32(ci))
		}
		body.u32(uint32(len(cone.POs)))
		for _, pi := range cone.POs {
			body.u32(uint32(pi))
		}
	})
	w.u32(uint32(n))
	w.b = append(w.b, body.b...)
	return seal(KindCones, VersionCones, w.b), n
}

// DecodeCones installs a cone snapshot into c, returning the number of
// cones decoded. Sites whose cone is already memoized keep the computed
// value; each installed cone is structurally validated by
// circuit.InstallCone.
func DecodeCones(c *circuit.Circuit, data []byte) (int, error) {
	payload, err := open(data, KindCones, VersionCones)
	if err != nil {
		return 0, err
	}
	r := &reader{b: payload}
	checkCircuitStamp(r, c)
	n := r.count(4 * 4)
	for i := 0; i < n && r.err == nil; i++ {
		site := circuit.NetID(r.u32())
		cone := &circuit.Cone{}
		if k := r.count(4); k > 0 {
			cone.Nets = make([]circuit.NetID, k)
			for j := range cone.Nets {
				cone.Nets[j] = circuit.NetID(r.u32())
			}
		}
		if k := r.count(4); k > 0 {
			cone.Cells = make([]int, k)
			for j := range cone.Cells {
				cone.Cells[j] = int(int32(r.u32()))
			}
		}
		if k := r.count(4); k > 0 {
			cone.POs = make([]int, k)
			for j := range cone.POs {
				cone.POs[j] = int(int32(r.u32()))
			}
		}
		if r.err != nil {
			break
		}
		if err := c.InstallCone(site, cone); err != nil {
			r.fail("cone %d: %v", i, err)
		}
	}
	if err := r.done(); err != nil {
		return 0, err
	}
	return n, nil
}

// EncodeSOCSimLayer serializes the SOC-scope fault-free layer: the
// segment map (core names and dimensions in daisy order — the offsets
// are derived) followed by each core's sim layer.
func EncodeSOCSimLayer(fs *soc.FaultSim) []byte {
	s := fs.SOC()
	sims := fs.CoreSims()
	w := &writer{}
	w.str(s.Name)
	w.u32(uint32(len(s.Cores)))
	for i, core := range s.Cores {
		w.str(core.Name)
		stampCircuit(w, core.Circuit)
		encodeLayerBody(w, sims[i])
	}
	return seal(KindSOCSimLayer, VersionSOCSimLayer, w.b)
}

// DecodeSOCSimLayer reconstructs the SOC-scope fault-free layer for s:
// each core's FaultSim is rebuilt from its layer rows and the global
// responses and segment offsets re-derived, with zero re-simulation.
func DecodeSOCSimLayer(s *soc.SOC, data []byte) (*soc.FaultSim, error) {
	payload, err := open(data, KindSOCSimLayer, VersionSOCSimLayer)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	if name := r.str(); r.err == nil && name != s.Name {
		return nil, fmt.Errorf("codec: artifact is for SOC %s, not %s", name, s.Name)
	}
	if n := r.u32(); r.err == nil && int(n) != len(s.Cores) {
		return nil, fmt.Errorf("codec: artifact has %d cores, SOC %s has %d", n, s.Name, len(s.Cores))
	}
	sims := make([]*sim.FaultSim, 0, len(s.Cores))
	for i := range s.Cores {
		if r.err != nil {
			break
		}
		if name := r.str(); r.err == nil && name != s.Cores[i].Name {
			r.fail("segment %d is core %s, SOC %s has %s", i, name, s.Name, s.Cores[i].Name)
			break
		}
		checkCircuitStamp(r, s.Cores[i].Circuit)
		sims = append(sims, decodeLayerBody(r, s.Cores[i].Circuit))
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	fs, err := soc.NewFaultSimFromCores(s, sims)
	if err != nil {
		return nil, fmt.Errorf("codec: %v", err)
	}
	return fs, nil
}

// EncodeBatchPlan serializes a compiled batch plan: the lane cap the plan
// was scheduled with (which fixes the plane-group size), then per batch
// the member faults, original-index map, plane assignments, and the dense
// gate/run/capture streams. The scratch-sizing maxima are not written;
// decode re-derives them.
func EncodeBatchPlan(c *circuit.Circuit, p *sim.BatchPlan) []byte {
	w := &writer{}
	stampCircuit(w, c)
	w.u8(uint8(p.Kind()))
	w.u16(uint16(p.LaneCap()))
	w.u32(uint32(p.NumFaults()))
	w.u32(uint32(len(p.Batches)))
	for _, cb := range p.Batches {
		bw := cb.Wire()
		w.u32(uint32(len(bw.Planes)))
		for _, pl := range bw.Planes {
			w.u8(pl)
		}
		w.u32(uint32(len(bw.Faults)))
		for _, f := range bw.Faults {
			w.i32(int32(f.Net))
			w.i32(int32(f.Gate))
			w.i32(int32(f.Pin))
			w.u8(f.Stuck)
		}
		w.u32(uint32(len(bw.TFaults)))
		for _, f := range bw.TFaults {
			w.i32(int32(f.Net))
			if f.SlowToRise {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
		w.u32(uint32(len(bw.Index)))
		for _, i := range bw.Index {
			w.u32(uint32(i))
		}
		w.u32(uint32(len(bw.Gates)))
		for _, g := range bw.Gates {
			w.i32(g.A)
			w.i32(g.B)
			w.i32(g.Out)
		}
		w.u32(uint32(len(bw.Runs)))
		for _, run := range bw.Runs {
			w.i32(run.Start)
			w.i32(run.End)
			w.u8(run.Op)
		}
		encodeCaps(w, bw.Cells)
		encodeCaps(w, bw.POs)
	}
	return seal(KindBatchPlan, VersionBatchPlan, w.b)
}

func encodeCaps(w *writer, caps []sim.CapRecord) {
	w.u32(uint32(len(caps)))
	for _, cc := range caps {
		w.i32(cc.Idx)
		w.i32(cc.Slot)
		w.i32(cc.Good)
		w.i32(cc.Owner)
	}
}

func decodeCaps(r *reader) []sim.CapRecord {
	n := r.count(16)
	if n == 0 {
		return nil
	}
	caps := make([]sim.CapRecord, n)
	for i := range caps {
		caps[i] = sim.CapRecord{Idx: r.i32(), Slot: r.i32(), Good: r.i32(), Owner: r.i32()}
	}
	return caps
}

// DecodeBatchPlan reconstructs a batch plan for c. Every batch passes
// sim.CompiledBatchFromWire's exhaustive validation (slot bounds,
// write-before-read ordering, run partitioning, fault wiring) and the
// plan-level index bijection is re-checked, so an accepted plan is safe
// to run and equivalent to the encoded one.
func DecodeBatchPlan(c *circuit.Circuit, data []byte) (*sim.BatchPlan, error) {
	payload, err := open(data, KindBatchPlan, VersionBatchPlan)
	if err != nil {
		return nil, err
	}
	r := &reader{b: payload}
	checkCircuitStamp(r, c)
	kind := sim.BatchKind(r.u8())
	laneCap := int(r.u16())
	nPlanes := sim.PlanesFor(laneCap)
	numFaults := int(int32(r.u32()))
	nb := r.count(7 * 4)
	batches := make([]*sim.CompiledBatch, 0, nb)
	for bi := 0; bi < nb && r.err == nil; bi++ {
		bw := &sim.BatchWire{}
		if n := r.count(1); n > 0 {
			bw.Planes = make([]uint8, n)
			for i := range bw.Planes {
				bw.Planes[i] = r.u8()
			}
		}
		if n := r.count(13); n > 0 {
			bw.Faults = make([]sim.Fault, n)
			for i := range bw.Faults {
				bw.Faults[i] = sim.Fault{
					Net:  circuit.NetID(r.i32()),
					Gate: circuit.NetID(r.i32()),
					Pin:  int(r.i32()),
				}
				bw.Faults[i].Stuck = r.u8()
			}
		}
		if n := r.count(5); n > 0 {
			bw.TFaults = make([]sim.TransitionFault, n)
			for i := range bw.TFaults {
				bw.TFaults[i] = sim.TransitionFault{Net: circuit.NetID(r.i32()), SlowToRise: r.u8() != 0}
			}
		}
		if n := r.count(4); n > 0 {
			bw.Index = make([]int, n)
			for i := range bw.Index {
				bw.Index[i] = int(r.i32())
			}
		}
		if n := r.count(12); n > 0 {
			bw.Gates = make([]sim.GateRecord, n)
			for i := range bw.Gates {
				bw.Gates[i] = sim.GateRecord{A: r.i32(), B: r.i32(), Out: r.i32()}
			}
		}
		if n := r.count(9); n > 0 {
			bw.Runs = make([]sim.RunRecord, n)
			for i := range bw.Runs {
				bw.Runs[i] = sim.RunRecord{Start: r.i32(), End: r.i32(), Op: r.u8()}
			}
		}
		bw.Cells = decodeCaps(r)
		bw.POs = decodeCaps(r)
		if r.err != nil {
			break
		}
		cb, err := sim.CompiledBatchFromWire(c, kind, nPlanes, bw)
		if err != nil {
			r.fail("batch %d: %v", bi, err)
			break
		}
		batches = append(batches, cb)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	p, err := sim.NewPlanFromBatches(kind, numFaults, laneCap, batches)
	if err != nil {
		return nil, fmt.Errorf("codec: %v", err)
	}
	return p, nil
}

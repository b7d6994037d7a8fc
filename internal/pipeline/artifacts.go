package pipeline

import (
	"fmt"

	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/diagnosis"
	"repro/internal/lfsr"
	"repro/internal/scan"
	"repro/internal/sim"
	"repro/internal/soc"
)

// SOCArtifacts is the immutable build product of one (device, spec) pair:
// everything a diagnosis run needs that does not depend on the fault. The
// device is an SOC; a plain full-scan circuit is the one-core SOC of
// soc.OfCircuit. Sim is the simulation layer — per-core pattern blocks,
// fault-free responses and the event-driven engine's shared read-only
// state — shared by every scheme and TAM width swept over the device.
// Treat every field as read-only; concurrent fault loops must Fork the
// FaultSim for per-goroutine scratch.
type SOCArtifacts struct {
	SOC    *soc.SOC
	Spec   Spec // normalized
	Sim    *soc.FaultSim
	Engine *bist.Engine
	Diag   *diagnosis.Diagnoser
	// Golden holds the fault-free signature per (partition, verdict slot)
	// — the values a deployment stores on the tester.
	Golden [][]uint64

	// cacheKey/simCacheKey record the content keys this artifact set was
	// cached under (empty when built without a cache); they let Pin find
	// the entries without re-deriving the fingerprint.
	cacheKey    string
	simCacheKey string
	// circuit is the core-0 view of a one-core artifact set (nil for
	// larger SOCs), created once so every lookup returns the same view.
	circuit *CircuitArtifacts
}

// CircuitArtifacts is the core-0 view of a one-core SOC artifact set: the
// same engine, diagnoser and golden signatures, with the core's own
// fault simulator, pattern blocks and fault-free responses, which for one
// core are the global ones.
type CircuitArtifacts struct {
	Circuit *circuit.Circuit
	Spec    Spec // normalized
	Blocks  []*sim.Block
	Sim     *sim.FaultSim
	Good    []*sim.Response
	Engine  *bist.Engine
	Diag    *diagnosis.Diagnoser
	Golden  [][]uint64

	soc *SOCArtifacts // the artifact set this view belongs to
}

// Circuit returns the core-0 view of a one-core artifact set, or nil when
// the SOC has several cores.
func (a *SOCArtifacts) Circuit() *CircuitArtifacts { return a.circuit }

func (s Spec) plan() bist.Plan {
	return bist.Plan{
		Scheme:     s.Scheme,
		Groups:     s.Groups,
		Partitions: s.Partitions,
		MISRPoly:   s.MISRPoly,
		Ideal:      s.Ideal,
	}
}

// scanConfig chains numCells cells in the spec's order (natural when
// unset). The natural order is the TestRail's daisy order, so for an SOC
// one chain is the single meta chain and several are balanced meta
// chains.
func (s Spec) scanConfig(numCells int) (scan.Config, error) {
	order := s.ScanOrder
	if order == nil {
		order = scan.NaturalOrder(numCells)
	}
	if len(order) != numCells {
		return scan.Config{}, fmt.Errorf("pipeline: scan order covers %d of %d cells", len(order), numCells)
	}
	if s.Chains == 1 {
		return scan.SingleChainOrdered(order), nil
	}
	return scan.SplitContiguous(order, s.Chains)
}

// buildSOCSim expands the shared PRPG into per-core patterns and
// simulates every core's fault-free machine.
func buildSOCSim(s *soc.SOC, spec Spec) (*soc.FaultSim, error) {
	if spec.Patterns < 1 {
		return nil, fmt.Errorf("pipeline: pattern count %d < 1", spec.Patterns)
	}
	prpg, err := lfsr.New(spec.PRPGPoly, spec.PRPGSeed)
	if err != nil {
		return nil, err
	}
	return soc.NewFaultSim(s, s.GeneratePatterns(prpg, spec.Patterns))
}

func buildSOC(s *soc.SOC, spec Spec, fs *soc.FaultSim) (*SOCArtifacts, error) {
	cfg, err := spec.scanConfig(s.NumCells())
	if err != nil {
		return nil, err
	}
	eng, err := bist.NewEngine(cfg, spec.plan(), spec.Patterns)
	if err != nil {
		return nil, err
	}
	diag, err := diagnosis.FromEngine(eng)
	if err != nil {
		return nil, err
	}
	a := &SOCArtifacts{
		SOC:    s,
		Spec:   spec,
		Sim:    fs,
		Engine: eng,
		Diag:   diag,
		Golden: eng.GoldenSignatures(fs.Good(), fs.Blocks()),
	}
	if s.NumCores() == 1 {
		core := fs.CoreSims()[0]
		a.circuit = &CircuitArtifacts{
			Circuit: s.Cores[0].Circuit,
			Spec:    spec,
			Blocks:  core.Blocks(),
			Sim:     core,
			Good:    fs.Good(),
			Engine:  eng,
			Diag:    diag,
			Golden:  a.Golden,
			soc:     a,
		}
	}
	return a, nil
}

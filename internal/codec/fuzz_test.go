package codec_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/codec"
	"repro/internal/lfsr"
	"repro/internal/sim"
	"repro/internal/soc"
)

// fuzzEnv is built once: the circuits and SOC every fuzz execution
// decodes against. Cone decoding gets a fresh circuit per candidate
// (install mutates the target), but those candidates are rare — only
// byte strings with a valid sha256 trailer reach a decoder at all.
var fuzzEnv struct {
	once sync.Once
	c    *circuit.Circuit
	cs   *soc.SOC // c as its one-core device
	s    *soc.SOC
}

func fuzzSetup(t testing.TB) (*circuit.Circuit, *soc.SOC, *soc.SOC) {
	fuzzEnv.once.Do(func() {
		fuzzEnv.c = mustGen(t, "s298")
		fuzzEnv.cs = soc.OfCircuit(fuzzEnv.c)
		fuzzEnv.s = testSOC(t)
	})
	return fuzzEnv.c, fuzzEnv.cs, fuzzEnv.s
}

// FuzzCodecRoundTrip drives arbitrary bytes at every decoder. The
// contract: a decode either fails with an error, or yields an artifact
// whose re-encoding is bit-for-bit identical to the input — there is no
// third outcome where corrupted bytes decode into a silently different
// artifact. Panics anywhere are failures.
func FuzzCodecRoundTrip(f *testing.F) {
	c, cs, s := fuzzSetup(f)
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	for _, fl := range faults[:10] {
		c.Cone(fl.Net)
	}
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	sfs, err := soc.NewFaultSim(s, s.GeneratePatterns(prpg, 70))
	if err != nil {
		f.Fatal(err)
	}

	// One pristine seed per artifact kind, plus targeted mutants: bytes
	// the fuzzer would take a long time to discover are seeded directly.
	seeds := [][]byte{
		codec.EncodeSOCSimLayer(circuitLayer(f, cs, 64)),
		codec.EncodeSOCSimLayer(sfs),
		codec.EncodeBatchPlan(c, sim.PlanBatches(c, faults, sim.BatchOptions{})),
		codec.EncodeBatchPlan(c, sim.PlanBatches(c, faults, sim.BatchOptions{MaxLanes: 5, ScanOrder: true})),
		codec.EncodeBatchPlan(c, sim.PlanTransitionBatches(c, sim.TransitionFaultList(c), sim.BatchOptions{})),
	}
	conesSeed, _ := codec.EncodeCones(c)
	seeds = append(seeds, conesSeed)
	for _, seed := range seeds {
		f.Add(seed)
		for _, off := range []int{0, 5, 7, 12, len(seed) / 2, len(seed) - 1} {
			mut := append([]byte(nil), seed...)
			mut[off] ^= 1
			f.Add(mut)
		}
		f.Add(seed[:len(seed)-3])
	}
	f.Add([]byte("SBA1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := codec.Inspect(data)
		if err != nil {
			// Rejected envelopes must be rejected by every decoder too.
			if _, derr := codec.DecodeSOCSimLayer(cs, data); derr == nil {
				t.Fatal("DecodeSOCSimLayer accepted an envelope Inspect rejects")
			}
			return
		}
		switch h.Kind {
		case codec.KindCones:
			fresh := mustGen(t, "s298")
			if n, err := codec.DecodeCones(fresh, data); err == nil {
				again, n2 := codec.EncodeCones(fresh)
				if n2 != n || !bytes.Equal(again, data) {
					t.Fatal("cones: decode succeeded but re-encode differs")
				}
			}
		case codec.KindSOCSimLayer:
			for _, dev := range []*soc.SOC{cs, s} {
				if got, err := codec.DecodeSOCSimLayer(dev, data); err == nil {
					if !bytes.Equal(codec.EncodeSOCSimLayer(got), data) {
						t.Fatal("soc sim layer: decode succeeded but re-encode differs")
					}
				}
			}
		case codec.KindBatchPlan:
			if got, err := codec.DecodeBatchPlan(c, data); err == nil {
				if !bytes.Equal(codec.EncodeBatchPlan(c, got), data) {
					t.Fatal("batch plan: decode succeeded but re-encode differs")
				}
			}
		default:
			// Unknown kind with a valid envelope: every typed decoder must
			// refuse it.
			if _, err := codec.DecodeSOCSimLayer(cs, data); err == nil {
				t.Fatal("DecodeSOCSimLayer accepted an artifact of another kind")
			}
		}
	})
}

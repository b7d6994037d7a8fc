package codec_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/codec"
	"repro/internal/lfsr"
	"repro/internal/sim"
	"repro/internal/soc"
)

// The round-trip contract under test: for every artifact kind,
// encode → decode → re-encode is bit-for-bit stable, decoded artifacts
// behave identically to the originals, and any corrupted byte is
// rejected with an error — never silently decoded into a wrong artifact.

func mustGen(t testing.TB, name string) *circuit.Circuit {
	t.Helper()
	c, err := benchgen.Generate(mustProfile(t, name))
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return c
}

func mustProfile(t testing.TB, name string) benchgen.Profile {
	t.Helper()
	p, ok := benchgen.ProfileByName(name)
	if !ok {
		t.Fatalf("no built-in profile %q", name)
	}
	return p
}

func genBlocks(c *circuit.Circuit, patterns int) []*sim.Block {
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	return bist.GenerateBlocks(prpg, c.NumInputs(), c.NumDFFs(), patterns)
}

func sameResult(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Detected() != want.Detected() {
		t.Fatalf("%s: detected %v, want %v", label, got.Detected(), want.Detected())
	}
	if !got.FailingCells.Equal(want.FailingCells) {
		t.Fatalf("%s: failing cells %v, want %v", label, got.FailingCells.Elems(), want.FailingCells.Elems())
	}
	if len(got.Faulty) != len(want.Faulty) {
		t.Fatalf("%s: %d faulty blocks, want %d", label, len(got.Faulty), len(want.Faulty))
	}
	for bi := range got.Faulty {
		g, w := got.Faulty[bi], want.Faulty[bi]
		if !equalWords(g.Next, w.Next) || !equalWords(g.PO, w.PO) {
			t.Fatalf("%s: block %d responses differ", label, bi)
		}
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimLayerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name     string
		patterns int
	}{
		{"s298", 64},
		{"s953", 100}, // two blocks, second partial
	} {
		c := mustGen(t, tc.name)
		s := soc.OfCircuit(c)
		sfs := circuitLayer(t, s, tc.patterns)
		data := codec.EncodeSOCSimLayer(sfs)

		sfs2, err := codec.DecodeSOCSimLayer(s, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if again := codec.EncodeSOCSimLayer(sfs2); !bytes.Equal(again, data) {
			t.Fatalf("%s: re-encode differs from original (%d vs %d bytes)", tc.name, len(again), len(data))
		}
		fs, fs2 := sfs.CoreSims()[0], sfs2.CoreSims()[0]
		if fs2.NumPatterns() != fs.NumPatterns() {
			t.Fatalf("%s: decoded %d patterns, want %d", tc.name, fs2.NumPatterns(), fs.NumPatterns())
		}
		// The decoded layer must diagnose identically, not just compare
		// equal structurally.
		for _, f := range sim.SampleFaults(sim.FullFaultList(c), 25, 7) {
			sameResult(t, tc.name+" "+f.Describe(c), fs2.Run(f), fs.Run(f))
		}
	}
}

// circuitLayer simulates the fault-free layer of a circuit's one-core
// device over patterns pseudorandom patterns.
func circuitLayer(t testing.TB, s *soc.SOC, patterns int) *soc.FaultSim {
	t.Helper()
	c := s.Cores[0].Circuit
	fs, err := soc.NewFaultSim(s, [][]*sim.Block{genBlocks(c, patterns)})
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestSimLayerRejectsWrongCircuit(t *testing.T) {
	c := mustGen(t, "s298")
	data := codec.EncodeSOCSimLayer(circuitLayer(t, soc.OfCircuit(c), 64))
	other := mustGen(t, "s953")
	if _, err := codec.DecodeSOCSimLayer(soc.OfCircuit(other), data); err == nil {
		t.Fatal("decoding an s298 layer against s953 succeeded")
	} else if !strings.Contains(err.Error(), "s298") {
		t.Fatalf("error does not name the stamped circuit: %v", err)
	}
}

func TestConesRoundTrip(t *testing.T) {
	c := mustGen(t, "s953")
	faults := sim.SampleFaults(sim.FullFaultList(c), 40, 3)
	for _, f := range faults {
		c.Cone(f.Net) // memoize
	}
	data, n := codec.EncodeCones(c)
	if n != c.NumMemoizedCones() || n == 0 {
		t.Fatalf("encoded %d cones, circuit holds %d", n, c.NumMemoizedCones())
	}

	fresh := mustGen(t, "s953")
	if fresh.NumMemoizedCones() != 0 {
		t.Fatalf("fresh circuit starts with %d memoized cones", fresh.NumMemoizedCones())
	}
	got, err := codec.DecodeCones(fresh, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != n || fresh.NumMemoizedCones() != n {
		t.Fatalf("decoded %d cones installing %d, want %d", got, fresh.NumMemoizedCones(), n)
	}
	if again, n2 := codec.EncodeCones(fresh); n2 != n || !bytes.Equal(again, data) {
		t.Fatalf("re-encode differs (cones %d vs %d)", n2, n)
	}
	// Installed cones must match the computed ones memberwise.
	for _, f := range faults {
		want, got := c.Cone(f.Net), fresh.Cone(f.Net)
		if len(want.Nets) != len(got.Nets) || len(want.Cells) != len(got.Cells) || len(want.POs) != len(got.POs) {
			t.Fatalf("cone %d shape differs after round trip", f.Net)
		}
	}
}

func TestConesRejectTampering(t *testing.T) {
	c := mustGen(t, "s298")
	c.Cone(c.DFFs[0])
	data, _ := codec.EncodeCones(c)
	// A structurally invalid cone behind a recomputed valid envelope must
	// still be rejected by InstallCone's validation. Rebuild the payload
	// with one cone site swapped to an out-of-cone net via decode into a
	// fresh circuit after flipping payload bytes: any flip breaks the
	// sha256, so instead exercise InstallCone directly.
	fresh := mustGen(t, "s298")
	if err := fresh.InstallCone(fresh.DFFs[0], &circuit.Cone{}); err == nil {
		t.Fatal("installing an empty cone for a real site succeeded")
	}
	if _, err := codec.DecodeCones(fresh, data); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
}

func testSOC(t testing.TB) *soc.SOC {
	t.Helper()
	s, err := soc.New("tiny",
		&soc.Core{Name: "s298", Circuit: mustGen(t, "s298")},
		&soc.Core{Name: "s953", Circuit: mustGen(t, "s953")},
	)
	if err != nil {
		t.Fatalf("assemble SOC: %v", err)
	}
	return s
}

func TestSOCSimLayerRoundTrip(t *testing.T) {
	s := testSOC(t)
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	fs, err := soc.NewFaultSim(s, s.GeneratePatterns(prpg, 70))
	if err != nil {
		t.Fatal(err)
	}
	data := codec.EncodeSOCSimLayer(fs)

	fs2, err := codec.DecodeSOCSimLayer(s, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := codec.EncodeSOCSimLayer(fs2); !bytes.Equal(again, data) {
		t.Fatal("re-encode differs from original")
	}
	// Same global fault behavior through the decoded segment map.
	for core := range s.Cores {
		for _, f := range sim.SampleFaults(fs.CoreFaults(core), 10, int64(core)+1) {
			got, want := fs2.Run(core, f), fs.Run(core, f)
			if got.Detected() != want.Detected() || !got.FailingCells.Equal(want.FailingCells) {
				t.Fatalf("core %d fault %v diverges after round trip", core, f)
			}
		}
	}
}

func TestSOCSimLayerRejectsOtherSOC(t *testing.T) {
	s := testSOC(t)
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	fs, err := soc.NewFaultSim(s, s.GeneratePatterns(prpg, 64))
	if err != nil {
		t.Fatal(err)
	}
	data := codec.EncodeSOCSimLayer(fs)
	other, err := soc.New("other", &soc.Core{Name: "s298", Circuit: mustGen(t, "s298")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.DecodeSOCSimLayer(other, data); err == nil {
		t.Fatal("decoding a tiny-SOC layer against a different SOC succeeded")
	}
}

var planOptions = []sim.BatchOptions{
	{},
	{MaxLanes: 7},
	{MaxLanes: 64},
	{MaxLanes: 128},
	{MaxLanes: 256},
	{ScanOrder: true},
	{MaxLanes: 3, ScanOrder: true},
	{MaxLanes: 128, ScanOrder: true},
}

func TestBatchPlanRoundTrip(t *testing.T) {
	c := mustGen(t, "s953")
	fs := sim.NewFaultSim(c, genBlocks(c, 64))
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	for _, opt := range planOptions {
		p := sim.PlanBatches(c, faults, opt)
		data := codec.EncodeBatchPlan(c, p)

		p2, err := codec.DecodeBatchPlan(c, data)
		if err != nil {
			t.Fatalf("lanes=%d scan=%v: decode: %v", opt.MaxLanes, opt.ScanOrder, err)
		}
		if again := codec.EncodeBatchPlan(c, p2); !bytes.Equal(again, data) {
			t.Fatalf("lanes=%d scan=%v: re-encode differs", opt.MaxLanes, opt.ScanOrder)
		}
		if p2.Kind() != p.Kind() || p2.NumFaults() != p.NumFaults() || len(p2.Batches) != len(p.Batches) {
			t.Fatalf("lanes=%d scan=%v: plan shape differs", opt.MaxLanes, opt.ScanOrder)
		}
		if p2.LaneCap() != p.LaneCap() || p2.NumPlanes() != p.NumPlanes() || p2.Fill() != p.Fill() {
			t.Fatalf("lanes=%d scan=%v: decoded lane shape %d/%d/%.3f, want %d/%d/%.3f",
				opt.MaxLanes, opt.ScanOrder, p2.LaneCap(), p2.NumPlanes(), p2.Fill(), p.LaneCap(), p.NumPlanes(), p.Fill())
		}
		// The decoded plan must produce bit-for-bit identical sweeps.
		want := make([]*sim.Result, len(faults))
		fs.RunPlan(p, func(i int, res *sim.Result) {
			want[i] = cloneResult(res)
		})
		covered := 0
		fs.RunPlan(p2, func(i int, res *sim.Result) {
			covered++
			sameResult(t, faults[i].Describe(c), res, want[i])
		})
		if covered != len(faults) {
			t.Fatalf("lanes=%d scan=%v: decoded plan covered %d of %d faults", opt.MaxLanes, opt.ScanOrder, covered, len(faults))
		}
	}
}

func TestTransitionPlanRoundTrip(t *testing.T) {
	c := mustGen(t, "s298")
	faults := sim.TransitionFaultList(c)
	p := sim.PlanTransitionBatches(c, faults, sim.BatchOptions{MaxLanes: 5})
	data := codec.EncodeBatchPlan(c, p)
	p2, err := codec.DecodeBatchPlan(c, data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if again := codec.EncodeBatchPlan(c, p2); !bytes.Equal(again, data) {
		t.Fatal("re-encode differs")
	}
	fs := sim.NewFaultSim(c, genBlocks(c, 64))
	want := make([]*sim.Result, len(faults))
	fs.RunPlan(p, func(i int, res *sim.Result) { want[i] = cloneResult(res) })
	fs.RunPlan(p2, func(i int, res *sim.Result) {
		sameResult(t, "transition", res, want[i])
	})
}

func TestBatchPlanRejectsWrongCircuit(t *testing.T) {
	c := mustGen(t, "s298")
	p := sim.PlanBatches(c, sim.CollapseFaults(c, sim.FullFaultList(c)), sim.BatchOptions{})
	data := codec.EncodeBatchPlan(c, p)
	if _, err := codec.DecodeBatchPlan(mustGen(t, "s953"), data); err == nil {
		t.Fatal("decoding an s298 plan against s953 succeeded")
	}
}

// TestBatchPlanRejectsStaleVersion forges a structurally intact envelope
// claiming the pre-wide-word format version and requires the decoder to
// reject it outright: a version-1 payload has no lane-cap field and its
// record stream uses the retired transition ops, so decoding it under the
// current schema would misinterpret bytes. The disk tier turns this
// rejection into quarantine-and-rebuild.
func TestBatchPlanRejectsStaleVersion(t *testing.T) {
	c := mustGen(t, "s298")
	p := sim.PlanBatches(c, sim.CollapseFaults(c, sim.FullFaultList(c)), sim.BatchOptions{})
	data := forgeVersion(t, codec.EncodeBatchPlan(c, p), 1)
	_, err := codec.DecodeBatchPlan(c, data)
	if err == nil {
		t.Fatal("decoding a version-1 batch plan succeeded")
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("rejection should name the version mismatch, got: %v", err)
	}
}

func cloneResult(res *sim.Result) *sim.Result {
	out := &sim.Result{Fault: res.Fault, FailingCells: res.FailingCells.Clone()}
	for _, r := range res.Faulty {
		out.Faulty = append(out.Faulty, &sim.Response{
			Next: append([]uint64(nil), r.Next...),
			PO:   append([]uint64(nil), r.PO...),
		})
	}
	return out
}

func TestInspect(t *testing.T) {
	c := mustGen(t, "s298")
	data := codec.EncodeSOCSimLayer(circuitLayer(t, soc.OfCircuit(c), 64))
	h, err := codec.Inspect(data)
	if err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if h.Kind != codec.KindSOCSimLayer || h.Version != codec.VersionSOCSimLayer {
		t.Fatalf("inspect reports %v v%d", h.Kind, h.Version)
	}
	if h.PayloadLen != len(data)-48 {
		t.Fatalf("payload length %d for a %d-byte envelope", h.PayloadLen, len(data))
	}
	if _, err := codec.Inspect(data[:20]); err == nil {
		t.Fatal("truncated envelope accepted")
	}
	if _, err := codec.Inspect(nil); err == nil {
		t.Fatal("empty envelope accepted")
	}
}

// TestCorruptionDetected flips bytes across the whole envelope of every
// artifact kind and requires each flip to be rejected: header flips fail
// structurally, payload and trailer flips fail the sha256.
func TestCorruptionDetected(t *testing.T) {
	c := mustGen(t, "s298")
	cs := soc.OfCircuit(c)
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	cones, _ := codec.EncodeCones(memoized(c, faults))
	s := testSOC(t)
	prpg := lfsr.MustNew(lfsr.MustPrimitivePoly(16), 0xACE1)
	sfs, err := soc.NewFaultSim(s, s.GeneratePatterns(prpg, 64))
	if err != nil {
		t.Fatal(err)
	}

	artifacts := []struct {
		kind   string
		data   []byte
		decode func([]byte) error
	}{
		{"sim-layer", codec.EncodeSOCSimLayer(circuitLayer(t, cs, 64)), func(d []byte) error {
			_, err := codec.DecodeSOCSimLayer(cs, d)
			return err
		}},
		{"cones", cones, func(d []byte) error {
			_, err := codec.DecodeCones(mustGen(t, "s298"), d)
			return err
		}},
		{"soc-sim-layer", codec.EncodeSOCSimLayer(sfs), func(d []byte) error {
			_, err := codec.DecodeSOCSimLayer(s, d)
			return err
		}},
		{"batch-plan", codec.EncodeBatchPlan(c, sim.PlanBatches(c, faults, sim.BatchOptions{})), func(d []byte) error {
			_, err := codec.DecodeBatchPlan(c, d)
			return err
		}},
	}
	for _, a := range artifacts {
		if err := a.decode(a.data); err != nil {
			t.Fatalf("%s: pristine artifact rejected: %v", a.kind, err)
		}
		// Stride through the envelope so every region (magic, header,
		// payload, sha trailer) sees flips without O(n²) cost.
		stride := len(a.data)/97 + 1
		for off := 0; off < len(a.data); off += stride {
			mut := append([]byte(nil), a.data...)
			mut[off] ^= 0x40
			if err := a.decode(mut); err == nil {
				t.Fatalf("%s: flip at offset %d of %d accepted", a.kind, off, len(a.data))
			}
		}
		// Truncation and extension are corruption too.
		if err := a.decode(a.data[:len(a.data)-1]); err == nil {
			t.Fatalf("%s: truncated artifact accepted", a.kind)
		}
		if err := a.decode(append(append([]byte(nil), a.data...), 0)); err == nil {
			t.Fatalf("%s: extended artifact accepted", a.kind)
		}
	}
}

func memoized(c *circuit.Circuit, faults []sim.Fault) *circuit.Circuit {
	for _, f := range faults[:min(20, len(faults))] {
		c.Cone(f.Net)
	}
	return c
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package shard

import (
	"fmt"
	"sync"

	"repro/internal/bench"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/codec"
	"repro/internal/pipeline"
	"repro/internal/soc"
)

// Shard jobs never carry netlists: a DeviceRef names a deterministic
// recipe (a benchgen profile, a .bench file on a shared filesystem, or
// an SOC preset) plus the structural fingerprint the coordinator
// computed. The worker rebuilds the device from the recipe, checks the
// fingerprint, and only then runs the shard — so a version skew or a
// divergent file can never silently produce verdicts for a different
// circuit.

// ProfileRef names a benchgen profile the worker regenerates locally.
// Pass the already-built circuit so the ref carries its fingerprint.
func ProfileRef(name string, seed int64, scale int, c *circuit.Circuit) codec.DeviceRef {
	if scale < 1 {
		scale = 1
	}
	return codec.DeviceRef{
		Kind:        codec.DeviceProfile,
		Name:        name,
		Seed:        seed,
		Scale:       uint32(scale),
		Fingerprint: pipeline.CircuitFingerprint(c),
	}
}

// BenchFileRef names a .bench netlist by path; the path must resolve to
// the same file on every worker (shared filesystem or identical layout).
func BenchFileRef(path string, c *circuit.Circuit) codec.DeviceRef {
	return codec.DeviceRef{
		Kind:        codec.DeviceBenchFile,
		Name:        path,
		Fingerprint: pipeline.CircuitFingerprint(c),
	}
}

// SOCRef names a built-in SOC preset (benchgen.SOCPresets).
func SOCRef(preset string, s *soc.SOC) codec.DeviceRef {
	return codec.DeviceRef{
		Kind:        codec.DeviceSOC,
		Name:        preset,
		Fingerprint: pipeline.SOCFingerprint(s),
	}
}

// deviceRegistry memoizes resolved devices by fingerprint. A circuit
// ref resolves to the one-core SOC of soc.OfCircuit, so every device is
// an SOC. Stable pointers matter beyond speed: the worker's
// ArtifactCache memoizes per-circuit fingerprints by pointer identity,
// so every job against the same device must see the same
// *circuit.Circuit.
type deviceRegistry struct {
	mu      sync.Mutex
	devices map[string]*soc.SOC
}

func newDeviceRegistry() *deviceRegistry {
	return &deviceRegistry{devices: make(map[string]*soc.SOC)}
}

// resolve rebuilds (or recalls) the device a ref names and verifies its
// fingerprint. Mismatches are permanent errors: retrying on another
// worker built from the same binary cannot help.
func (reg *deviceRegistry) resolve(ref codec.DeviceRef) (*soc.SOC, error) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if s, ok := reg.devices[ref.Fingerprint]; ok {
		return s, nil
	}
	var s *soc.SOC
	var got string
	switch ref.Kind {
	case codec.DeviceProfile, codec.DeviceBenchFile:
		c, err := buildCircuit(ref)
		if err != nil {
			return nil, fmt.Errorf("shard: resolving device %q: %w", ref.Name, err)
		}
		s, got = soc.OfCircuit(c), pipeline.CircuitFingerprint(c)
	case codec.DeviceSOC:
		var err error
		if s, err = soc.Preset(ref.Name); err != nil {
			return nil, fmt.Errorf("shard: resolving SOC preset %q: %w", ref.Name, err)
		}
		got = pipeline.SOCFingerprint(s)
	default:
		return nil, fmt.Errorf("shard: unknown device kind %d", ref.Kind)
	}
	if got != ref.Fingerprint {
		return nil, fmt.Errorf("shard: device %q fingerprint mismatch: coordinator %s, worker %s",
			ref.Name, ref.Fingerprint, got)
	}
	reg.devices[ref.Fingerprint] = s
	return s, nil
}

// buildCircuit rebuilds the circuit a profile or bench-file ref names.
func buildCircuit(ref codec.DeviceRef) (*circuit.Circuit, error) {
	if ref.Kind == codec.DeviceBenchFile {
		return bench.ParseFile(ref.Name)
	}
	p, ok := benchgen.ProfileByName(ref.Name)
	if !ok {
		return nil, fmt.Errorf("unknown benchgen profile %q", ref.Name)
	}
	if ref.Seed != 0 {
		p.Seed = ref.Seed
	}
	if ref.Scale > 1 {
		p = p.Scale(int(ref.Scale))
	}
	return benchgen.Generate(p)
}

// circuitOf resolves a profile or bench-file ref for the circuit-only
// chain sweep. It rejects an SOC ref before the memo lookup, so a
// preset's fingerprint can never hand back a multi-core device.
func (reg *deviceRegistry) circuitOf(ref codec.DeviceRef) (*circuit.Circuit, error) {
	if ref.Kind == codec.DeviceSOC {
		return nil, fmt.Errorf("shard: device kind %d is not a circuit", ref.Kind)
	}
	s, err := reg.resolve(ref)
	if err != nil {
		return nil, err
	}
	return s.Cores[0].Circuit, nil
}

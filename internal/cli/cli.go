// Package cli holds the helpers the command-line tools share: flag
// validation, scheme and circuit lookup, the design-rule report and the
// heap profile. Helpers that print take the program name that prefixes
// their diagnostics, and none exits: each command keeps its own exit
// codes.
package cli

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/benchgen"
	"repro/internal/circuit"
	"repro/internal/drc"
	"repro/internal/partition"
)

// maxCacheMB rejects budgets no machine these tools target could hold
// (1 TiB): such values are typos, not configurations.
const maxCacheMB = 1 << 20

// ValidateCacheMB checks a -cachemb value.
func ValidateCacheMB(mb int64) error {
	if mb < 0 {
		return fmt.Errorf("-cachemb must be non-negative, got %d", mb)
	}
	if mb > maxCacheMB {
		return fmt.Errorf("-cachemb must be at most %d (1 TiB), got %d", int64(maxCacheMB), mb)
	}
	return nil
}

// SchemeByName resolves a -scheme value.
func SchemeByName(name string) (partition.Scheme, error) {
	switch name {
	case "two-step":
		return partition.TwoStep{}, nil
	case "random", "random-selection":
		return partition.RandomSelection{}, nil
	case "interval":
		return partition.Interval{}, nil
	case "fixed", "fixed-interval":
		return partition.FixedInterval{}, nil
	}
	return nil, fmt.Errorf("unknown scheme %q", name)
}

// ErrUnknownCircuit is wrapped by LoadCircuit's error for a name that is
// no built-in profile.
var ErrUnknownCircuit = errors.New("unknown built-in circuit")

// LoadCircuit parses the .bench netlist at path or, when path is empty,
// generates the built-in profile name.
func LoadCircuit(path, name string) (*circuit.Circuit, error) {
	if path != "" {
		return bench.ParseFile(path)
	}
	p, ok := benchgen.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrUnknownCircuit, name)
	}
	return benchgen.Generate(p)
}

// ReportDRC prints the design-rule verdict for name: "drc:" padded to
// width, then "clean" on stdout, or every violation on stderr. It
// returns false on violations, which the caller turns into exit status
// 2: simulating a rule-breaking design would produce corrupt signatures,
// not diagnoses.
func ReportDRC(prog string, width int, name string, vs []drc.Violation) bool {
	if len(vs) == 0 {
		fmt.Printf("%-*s%s clean\n", width, "drc:", name)
		return true
	}
	fmt.Fprintf(os.Stderr, "%s: drc: %s: %d violation(s)\n", prog, name, len(vs))
	for _, v := range vs {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	return false
}

// WriteMemProfile snapshots the heap after a GC so the profile reflects
// retained memory, not transient garbage. A no-op for an empty path.
func WriteMemProfile(prog, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, prog+":", err)
	}
}

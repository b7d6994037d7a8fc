package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"repro/internal/core"
	"repro/internal/diagnosis"
)

// drOut is one study's DR outputs; DR values are kept as their integer
// parts ([candidates, actual, faults]), so equality is bit-for-bit.
type drOut struct {
	Study       string   `json:"study"`
	Full        [3]int   `json:"full"`
	Pruned      [3]int   `json:"pruned"`
	ByPartition [][3]int `json:"by_partition"`
	Diagnosed   int      `json:"diagnosed"`
	Undetected  int      `json:"undetected"`
}

func dr3(d diagnosis.DR) [3]int { return [3]int{d.Candidates, d.Actual, d.Faults} }

func outputsOf(name string, st *core.Study) drOut {
	out := drOut{Study: name, Full: dr3(st.Full), Pruned: dr3(st.Pruned), Diagnosed: st.Diagnosed, Undetected: st.Undetected}
	for _, d := range st.ByPartition {
		out.ByPartition = append(out.ByPartition, dr3(d))
	}
	return out
}

// singleOut is one single-fault call's outcome: failing cells, then
// intersection and pruned candidate counts (all 0 when undetected).
type singleOut [3]int

func singleOf(fd *core.FaultDiagnosis) singleOut {
	if !fd.Detected {
		return singleOut{}
	}
	return singleOut{fd.Actual.Len(), fd.Result.Candidates.Len(), fd.Result.Pruned.Len()}
}

// referenceFile pins every workload's outputs at the default seed, as the
// unchanged program produced them when the benchmark was added.
type referenceFile struct {
	Note      string           `json:"note"`
	Seed      int64            `json:"seed"`
	Workloads []referenceEntry `json:"workloads"`
}

type referenceEntry struct {
	Workload workload    `json:"workload"`
	Studies  []drOut     `json:"studies"`
	Singles  []singleOut `json:"singles"`
}

//go:embed reference.json
var referenceJSON []byte

func referenceFor(w workload) (referenceEntry, bool) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return referenceEntry{}, false
	}
	for _, e := range ref.Workloads {
		if reflect.DeepEqual(e.Workload, w) {
			return e, true
		}
	}
	return referenceEntry{}, false
}

// checker compares every study and single-fault call with its baseline:
// reference.json when the run uses the default seed and the recorded
// sizes, otherwise the first outcome seen — so untraced, traced, local
// and sharded results must all agree.
type checker struct {
	pinned     bool
	studies    map[string]drOut
	order      []string
	singles    map[int]singleOut
	attempted  int
	failed     int
	mismatches []string
}

func newChecker(w workload, seed int64) *checker {
	c := newOpenChecker()
	if seed != defaultSeed {
		return c
	}
	if e, ok := referenceFor(w); ok {
		c.pinned = true
		for _, s := range e.Studies {
			c.studies[s.Study] = s
			c.order = append(c.order, s.Study)
		}
		for j, o := range e.Singles {
			c.singles[j] = o
		}
	}
	return c
}

// newOpenChecker returns a checker whose baseline is the first outcome
// seen.
func newOpenChecker() *checker {
	return &checker{studies: map[string]drOut{}, singles: map[int]singleOut{}}
}

func (c *checker) mismatch(n int, format string, args ...any) {
	c.failed += n
	if len(c.mismatches) < 20 {
		c.mismatches = append(c.mismatches, fmt.Sprintf(format, args...))
	}
}

// study checks one study; every fault it scheduled is one operation.
func (c *checker) study(s namedStudy) {
	n := s.study.Completeness.Scheduled
	c.attempted += n
	if !s.study.Completeness.Complete() {
		c.mismatch(n, "%s (%s): study incomplete, %d of %d faults", s.name, s.origin, s.study.Completeness.Observed, n)
		return
	}
	got := outputsOf(s.name, s.study)
	want, ok := c.studies[s.name]
	switch {
	case !ok && c.pinned:
		c.mismatch(n, "%s (%s): study missing from reference.json", s.name, s.origin)
	case !ok:
		c.studies[s.name] = got
		c.order = append(c.order, s.name)
	case !reflect.DeepEqual(got, want):
		c.mismatch(n, "%s (%s): DR outputs differ:\n  got  %+v\n  want %+v", s.name, s.origin, got, want)
	}
}

// single checks the j-th call of the fixed single-fault set.
func (c *checker) single(j int, fd *core.FaultDiagnosis) {
	c.attempted++
	got := singleOf(fd)
	want, ok := c.singles[j]
	switch {
	case ok && want != got:
		c.mismatch(1, "single fault %d (%+v): got %v, want %v", j, fd.Fault, got, want)
	case !ok && c.pinned:
		c.mismatch(1, "single fault %d: missing from reference.json", j)
	case !ok:
		c.singles[j] = got
	}
}

// failIteration counts an iteration that returned an error.
func (c *checker) failIteration(planned int, err error) {
	c.attempted += planned
	c.mismatch(planned, "iteration failed: %v", err)
}

// writeReference records every workload's outputs at the default seed:
// one untraced iteration (after shard-warm's local sweep and store
// warm-up) and one pass over the single-fault set, each checked against
// itself, then writes them to path.
func writeReference(ctx context.Context, path, store string) error {
	ref := referenceFile{
		Note: "DR outputs at the default seed, recorded from the unchanged program; see README.md",
		Seed: defaultSeed,
	}
	for _, w := range workloads {
		c := newOpenChecker()
		r := &runner{w: w, seed: defaultSeed, store: store, chk: c}
		if err := r.prepare(ctx, false); err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		it, err := w.iterate(ctx, defaultSeed, store, nil, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		for _, s := range it.studies {
			c.study(s)
		}
		for j, single := range it.singles {
			c.single(j, single())
		}
		if c.failed > 0 {
			return fmt.Errorf("%s: outputs disagree: %v", w.Name, c.mismatches)
		}
		e := referenceEntry{Workload: w}
		for j := range it.singles {
			e.Singles = append(e.Singles, c.singles[j])
		}
		for _, name := range c.order {
			e.Studies = append(e.Studies, c.studies[name])
		}
		ref.Workloads = append(ref.Workloads, e)
		fmt.Fprintf(os.Stderr, "perfbench: recorded %s: %d studies, %d single faults\n", w.Name, len(e.Studies), len(e.Singles))
	}
	return os.WriteFile(path, encodeReference(ref), 0o644)
}

// encodeReference writes one study per line and each workload's singles
// on one line, so the file diffs study by study.
func encodeReference(ref referenceFile) []byte {
	var b bytes.Buffer
	line := func(v any) string {
		data, _ := json.Marshal(v)
		return string(data)
	}
	fmt.Fprintf(&b, "{\n \"note\": %s,\n \"seed\": %d,\n \"workloads\": [\n", line(ref.Note), ref.Seed)
	for i, e := range ref.Workloads {
		fmt.Fprintf(&b, "  {\"workload\": %s,\n   \"studies\": [\n", line(e.Workload))
		for j, s := range e.Studies {
			sep := ","
			if j == len(e.Studies)-1 {
				sep = ""
			}
			fmt.Fprintf(&b, "    %s%s\n", line(s), sep)
		}
		sep := ","
		if i == len(ref.Workloads)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "   ],\n   \"singles\": %s}%s\n", line(e.Singles), sep)
	}
	b.WriteString(" ]\n}\n")
	return b.Bytes()
}

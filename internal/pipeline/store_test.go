package pipeline

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/codec"
	"repro/internal/partition"
	"repro/internal/pipeline/diskstore"
	"repro/internal/sim"
	"repro/internal/soc"
)

// openDisk opens a diskstore on dir for direct inspection and tampering;
// the cache under test attaches its own handle to the same directory.
func openDisk(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	ds, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func attachDir(t *testing.T, c *ArtifactCache, dir string) {
	t.Helper()
	if err := c.AttachDir(dir); err != nil {
		t.Fatal(err)
	}
}

// diskKeyWithPrefix returns the single stored key with the given
// namespace prefix.
func diskKeyWithPrefix(t *testing.T, ds *diskstore.Store, prefix string) string {
	t.Helper()
	entries, err := ds.List()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	for _, e := range entries {
		if strings.HasPrefix(e.Key, prefix) {
			found = append(found, e.Key)
		}
	}
	if len(found) != 1 {
		t.Fatalf("store holds %d entries with prefix %q, want 1: %v", len(found), prefix, found)
	}
	return found[0]
}

func sameGood(a, b []*sim.Response) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !equalWords(a[i].Next, b[i].Next) || !equalWords(a[i].PO, b[i].PO) {
			return false
		}
	}
	return true
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

// sampleFaultsAgree runs a spread of faults through both simulators and
// compares the diagnosis-relevant outcome.
func sampleFaultsAgree(t *testing.T, want, got *sim.FaultSim, faults []sim.Fault) {
	t.Helper()
	step := len(faults)/20 + 1
	for i := 0; i < len(faults); i += step {
		rw, rg := want.Run(faults[i]), got.Run(faults[i])
		if !rw.FailingCells.Equal(rg.FailingCells) || rw.DetectingPatterns != rg.DetectingPatterns || rw.POOnly != rg.POOnly {
			t.Fatalf("fault %+v: persisted sim layer diverges from fresh build", faults[i])
		}
	}
}

func TestAttachDirValidation(t *testing.T) {
	var nilCache *ArtifactCache
	if err := nilCache.AttachDir(t.TempDir()); err == nil {
		t.Error("AttachDir on a nil cache succeeded")
	}
	nilCache.AttachDisk(nil) // must not panic

	cache := NewCache()
	dir := t.TempDir()
	attachDir(t, cache, dir)
	if cache.DiskDir() != dir {
		t.Errorf("DiskDir() = %q, want %q", cache.DiskDir(), dir)
	}
	if err := cache.AttachDir(dir); err != nil {
		t.Errorf("re-attaching the same directory: %v", err)
	}
	if err := cache.AttachDir(t.TempDir()); err == nil {
		t.Error("switching to a different directory was not rejected")
	}
}

func TestWarmStartCircuit(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	dir := t.TempDir()

	cold := NewCache()
	attachDir(t, cold, dir)
	a1, err := cold.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	st := cold.Stats()
	if st.DiskWrites == 0 || st.DiskHits != 0 {
		t.Fatalf("cold build stats %+v: want writes, no hits", st)
	}

	// A fresh cache over the same directory models a second process: its
	// memory tier is empty, so the artifact must come off disk.
	warm := NewCache()
	attachDir(t, warm, dir)
	a2, err := warm.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	st = warm.Stats()
	if st.DiskHits == 0 || st.Promotions == 0 {
		t.Fatalf("warm start stats %+v: want disk hits and promotions", st)
	}
	if st.DiskWrites != 0 {
		t.Fatalf("warm start stats %+v: rebuilt and rewrote an artifact that was on disk", st)
	}
	if !sameGood(a1.Good, a2.Good) {
		t.Fatal("persisted good responses differ from the fresh build")
	}
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	sampleFaultsAgree(t, a1.Sim, a2.Sim, faults)

	// Within the warm process the memory tier now serves the artifact.
	a3, err := warm.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	if a3 != a2 {
		t.Error("second warm lookup did not hit the memory tier")
	}
}

func TestWarmStartSOC(t *testing.T) {
	var cores []*soc.Core
	for _, name := range []string{"s298", "s526"} {
		cores = append(cores, &soc.Core{Name: name, Circuit: benchgen.MustGenerate(name)})
	}
	s, err := soc.New("warmsoc", cores...)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := baseSpec(partition.Interval{})

	cold := NewCache()
	attachDir(t, cold, dir)
	a1, err := cold.SOC(s, spec)
	if err != nil {
		t.Fatal(err)
	}

	warm := NewCache()
	attachDir(t, warm, dir)
	a2, err := warm.SOC(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.DiskHits == 0 || st.DiskWrites != 0 {
		t.Fatalf("warm SOC stats %+v: want disk hit, no rebuild", st)
	}
	if !sameGood(a1.Sim.Good(), a2.Sim.Good()) {
		t.Fatal("persisted SOC good responses differ from the fresh build")
	}
	for core := range cores {
		faults := a1.Sim.CoreFaults(core)
		step := len(faults)/10 + 1
		for i := 0; i < len(faults); i += step {
			r1, r2 := a1.Sim.Run(core, faults[i]), a2.Sim.Run(core, faults[i])
			if !r1.FailingCells.Equal(r2.FailingCells) {
				t.Fatalf("core %d fault %+v: persisted SOC layer diverges", core, faults[i])
			}
		}
	}
}

func TestWarmStartPlanAndCones(t *testing.T) {
	c1 := benchgen.MustGenerate("s298")
	faults := sim.CollapseFaults(c1, sim.FullFaultList(c1))
	opt := sim.BatchOptions{MaxLanes: 8}
	dir := t.TempDir()

	cold := NewCache()
	attachDir(t, cold, dir)
	p1 := cold.Plan(c1, faults, opt)
	if cold.Stats().DiskWrites < 2 {
		t.Fatalf("cold plan stats %+v: want plan and cone snapshot written", cold.Stats())
	}
	ds := openDisk(t, dir)
	diskKeyWithPrefix(t, ds, "plan|")
	diskKeyWithPrefix(t, ds, "cones|")

	// Second process: a structurally identical but distinct circuit (fresh
	// generate), so the cone snapshot must install into it and the plan
	// must validate against it.
	c2 := benchgen.MustGenerate("s298")
	if c2.NumMemoizedCones() != 0 {
		t.Fatal("fresh circuit starts with memoized cones")
	}
	warm := NewCache()
	attachDir(t, warm, dir)
	faults2 := sim.CollapseFaults(c2, sim.FullFaultList(c2))
	p2 := warm.Plan(c2, faults2, opt)
	st := warm.Stats()
	if st.DiskWrites != 0 {
		t.Fatalf("warm plan stats %+v: plan or cones were rebuilt and rewritten", st)
	}
	if st.Promotions < 2 {
		t.Fatalf("warm plan stats %+v: want plan and cones promoted", st)
	}
	if c2.NumMemoizedCones() != c1.NumMemoizedCones() {
		t.Errorf("cone snapshot installed %d cones, source process memoized %d",
			c2.NumMemoizedCones(), c1.NumMemoizedCones())
	}

	// The promoted plan must drive the sweep to bit-identical results.
	spec := baseSpec(partition.Interval{})
	fs1, err := cold.Circuit(c1, spec)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := warm.Circuit(c2, spec)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*sim.Result, len(faults))
	fs1.Sim.RunPlan(p1, func(i int, r *sim.Result) {
		want[i] = &sim.Result{FailingCells: r.FailingCells.Clone(), DetectingPatterns: r.DetectingPatterns}
	})
	fs2.Sim.RunPlan(p2, func(i int, r *sim.Result) {
		if !want[i].FailingCells.Equal(r.FailingCells) || want[i].DetectingPatterns != r.DetectingPatterns {
			t.Errorf("fault %d: warm plan result diverges from cold plan", i)
		}
	})

	// TransitionPlan shares the tier.
	tf := sim.TransitionFaultList(c1)
	tp1 := cold.TransitionPlan(c1, tf, opt)
	warm2 := NewCache()
	attachDir(t, warm2, dir)
	tp2 := warm2.TransitionPlan(c2, sim.TransitionFaultList(c2), opt)
	if warm2.Stats().DiskHits == 0 || tp2.NumFaults() != tp1.NumFaults() {
		t.Errorf("transition plan warm start: stats %+v", warm2.Stats())
	}
}

// corruptEntryFile flips one payload byte of the on-disk entry for key,
// in place, leaving the diskstore CRC stale.
func corruptEntryFile(t *testing.T, ds *diskstore.Store, key string) {
	t.Helper()
	entries, err := ds.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Key != key {
			continue
		}
		raw, err := os.ReadFile(e.Path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)-1] ^= 0x80
		if err := os.WriteFile(e.Path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatalf("no entry for key %q", key)
}

func TestCorruptBlobRebuildsCleanly(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	dir := t.TempDir()
	spec := baseSpec(partition.Interval{})

	cold := NewCache()
	attachDir(t, cold, dir)
	a1, err := cold.Circuit(c, spec)
	if err != nil {
		t.Fatal(err)
	}

	ds := openDisk(t, dir)
	simKey := diskKeyWithPrefix(t, ds, "socsim|")
	corruptEntryFile(t, ds, simKey)

	warm := NewCache()
	attachDir(t, warm, dir)
	a2, err := warm.Circuit(c, spec)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.Corruptions != 1 {
		t.Fatalf("stats %+v: corrupt blob not counted", st)
	}
	if st.DiskWrites == 0 {
		t.Fatalf("stats %+v: rebuild did not write through", st)
	}
	if !sameGood(a1.Good, a2.Good) {
		t.Fatal("rebuild after corruption diverges from the original")
	}

	// The write-through repaired the store: a third process hits cleanly.
	third := NewCache()
	attachDir(t, third, dir)
	if _, err := third.Circuit(c, spec); err != nil {
		t.Fatal(err)
	}
	if st := third.Stats(); st.DiskHits == 0 || st.Corruptions != 0 {
		t.Fatalf("stats %+v after repair: want clean disk hit", st)
	}
}

func TestDecodeFailureQuarantines(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	dir := t.TempDir()
	spec := baseSpec(partition.Interval{})

	cold := NewCache()
	attachDir(t, cold, dir)
	if _, err := cold.Circuit(c, spec); err != nil {
		t.Fatal(err)
	}
	ds := openDisk(t, dir)
	simKey := diskKeyWithPrefix(t, ds, "socsim|")
	// Overwrite with bytes the diskstore CRC accepts but the codec must
	// reject: valid blob, invalid artifact.
	if err := ds.Put(simKey, []byte("not a codec envelope")); err != nil {
		t.Fatal(err)
	}

	warm := NewCache()
	attachDir(t, warm, dir)
	if _, err := warm.Circuit(c, spec); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	if st.DiskHits != 1 || st.Corruptions != 1 {
		t.Fatalf("stats %+v: want the bad blob read once and counted corrupt", st)
	}
	if st.DiskWrites == 0 {
		t.Fatalf("stats %+v: rebuild did not write through", st)
	}
}

func TestConcurrentColdStartBuildsOnce(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	dir := t.TempDir()
	cache := NewCache()
	ds := openDisk(t, dir)
	cache.AttachDisk(ds)
	spec := baseSpec(partition.Interval{})

	var wg sync.WaitGroup
	arts := make([]*CircuitArtifacts, 8)
	for g := range arts {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a, err := cache.Circuit(c, spec)
			if err != nil {
				t.Error(err)
				return
			}
			arts[g] = a
		}(g)
	}
	wg.Wait()
	for _, a := range arts[1:] {
		if a != arts[0] {
			t.Fatal("concurrent cold fetch-or-build returned distinct artifacts")
		}
	}
	if puts := ds.Stats().Puts; puts != 1 {
		t.Errorf("concurrent cold start wrote %d sim blobs, want exactly 1", puts)
	}
	if st := cache.Stats(); st.SimMisses != 1 {
		t.Errorf("stats %+v: want exactly one sim build", st)
	}
}

// TestTieredStoreTorture exercises the full stack under the race
// detector: a tiny memory budget forcing evictions, a disk tier holding
// one corrupted plan entry, and parallel sweeps over several specs and
// two plan shapes. Every result must be consistent, the corruption must
// be counted and repaired exactly once, and evicted entries must come
// back from disk rather than being rebuilt.
func TestTieredStoreTorture(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	faults := sim.CollapseFaults(c, sim.FullFaultList(c))
	dir := t.TempDir()
	specs := []Spec{
		baseSpec(partition.Interval{}),
		baseSpec(partition.RandomSelection{}),
		func() Spec { s := baseSpec(partition.Interval{}); s.Patterns = 96; return s }(),
	}
	opts := []sim.BatchOptions{{}, {MaxLanes: 8}}

	// Phase 1: populate the disk tier, then corrupt one plan entry at the
	// codec level (intact blob CRC, garbage artifact).
	seed := NewCache()
	attachDir(t, seed, dir)
	for _, spec := range specs {
		if _, err := seed.Circuit(c, spec); err != nil {
			t.Fatal(err)
		}
	}
	var planKeys []string
	for _, opt := range opts {
		seed.Plan(c, faults, opt)
		planKeys = append(planKeys, planKey(seed.fingerprint(c), sim.BatchStuckAt, len(faults), hashFaults(faults), opt))
	}
	ds := openDisk(t, dir)
	if err := ds.Put(planKeys[0], bytes.Repeat([]byte{0xDE}, 64)); err != nil {
		t.Fatal(err)
	}

	// Phase 2: a second process with a memory budget small enough to force
	// evictions, hammered by parallel goroutines.
	cache := NewCacheWithBudget(Budget{MaxBytes: 1 << 17})
	attachDir(t, cache, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				spec := specs[(g+i)%len(specs)]
				a, err := cache.Circuit(c, spec)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if len(a.Good) == 0 {
					t.Errorf("goroutine %d: artifact with no good responses", g)
					return
				}
				opt := opts[(g+i)%len(opts)]
				p := cache.Plan(c, faults, opt)
				if p == nil || !planCoversFaults(p, faults, planLanes(opt)) {
					t.Errorf("goroutine %d: plan does not cover the fault list", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st := cache.Stats()
	if st.Corruptions != 1 {
		t.Errorf("stats %+v: corrupted plan should be detected exactly once", st)
	}
	if st.DiskWrites != 1 {
		t.Errorf("stats %+v: only the corrupted plan should have been rebuilt and rewritten", st)
	}
	if st.DiskHits == 0 {
		t.Errorf("stats %+v: warm process never hit the disk tier", st)
	}
	if st.Evictions == 0 {
		t.Errorf("stats %+v: budget %d never forced an eviction", st, 1<<17)
	}

	// The repaired entry now round-trips for a third process.
	third := NewCache()
	attachDir(t, third, dir)
	p := third.Plan(c, faults, opts[0])
	if !planCoversFaults(p, faults, planLanes(opts[0])) {
		t.Fatal("repaired plan entry does not cover the fault list")
	}
	if st := third.Stats(); st.Corruptions != 0 || st.DiskWrites != 0 {
		t.Errorf("stats %+v after repair: want a clean promote", st)
	}
}

// TestStalePlanInvalidated covers the disk-plan staleness contract for
// cache directories written before the wide-word kernel, in both shapes a
// stale entry can take:
//
//  1. A blob filed under the pre-wide key format (no word-width or
//     kernel-version fields). The new key never resolves it, so the plan
//     misses and rebuilds under the new key; the relic is ignored, not
//     misread.
//  2. A format-version-1 envelope sitting at the current key (forged by
//     re-sealing a real plan's envelope with the old version stamp). The
//     fetch succeeds, the codec rejects the version, the entry is
//     quarantined, and the plan rebuilds and writes through.
//
// Either way the sweep must see a correct plan — never a mis-decoded one.
func TestStalePlanInvalidated(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	faults := sim.SampleFaults(sim.FullFaultList(c), 60, 5)
	opt := sim.BatchOptions{}
	dir := t.TempDir()

	seed := NewCache()
	attachDir(t, seed, dir)
	want := seed.Plan(c, faults, opt)
	key := planKey(seed.fingerprint(c), sim.BatchStuckAt, len(faults), hashFaults(faults), opt)
	ds := openDisk(t, dir)
	data, err := ds.Get(key)
	if err != nil {
		t.Fatal(err)
	}

	// Shape 1: the same bytes under the key an old binary would have used.
	oldKey := fmt.Sprintf("plan|%s|kind%d|n%d|f%s|l%d|so%t",
		seed.fingerprint(c), sim.BatchStuckAt, len(faults), hashFaults(faults), sim.MaxLanes, false)
	if err := ds.Put(oldKey, data); err != nil {
		t.Fatal(err)
	}
	// Shape 2: a forged version-1 envelope at the current key.
	forged := append([]byte(nil), data...)
	forged[6], forged[7] = 1, 0 // envelope format version, little-endian
	sum := sha256.Sum256(forged[:len(forged)-sha256.Size])
	copy(forged[len(forged)-sha256.Size:], sum[:])
	if err := ds.Put(key, forged); err != nil {
		t.Fatal(err)
	}

	warm := NewCache()
	attachDir(t, warm, dir)
	got := warm.Plan(c, faults, opt)
	if !planCoversFaults(got, faults, planLanes(opt)) {
		t.Fatal("rebuilt plan does not cover the fault list")
	}
	if !bytes.Equal(codec.EncodeBatchPlan(c, got), codec.EncodeBatchPlan(c, want)) {
		t.Fatal("plan rebuilt after stale-blob invalidation differs from the original")
	}
	st := warm.Stats()
	if st.Corruptions != 1 {
		t.Fatalf("stats %+v: the stale version-1 envelope should count one corruption", st)
	}
	if st.DiskWrites != 1 {
		t.Fatalf("stats %+v: the rebuilt plan should write through exactly once", st)
	}

	// The write-through repaired the current key; the old-format relic is
	// still on disk, ignored rather than quarantined.
	third := NewCache()
	attachDir(t, third, dir)
	if p := third.Plan(c, faults, opt); !planCoversFaults(p, faults, planLanes(opt)) {
		t.Fatal("repaired plan entry does not cover the fault list")
	}
	if st := third.Stats(); st.Corruptions != 0 || st.DiskWrites != 0 || st.DiskHits == 0 {
		t.Fatalf("stats %+v after repair: want a clean disk promote", st)
	}
	if relic, err := ds.Get(oldKey); err != nil || !bytes.Equal(relic, data) {
		t.Fatalf("old-format relic should survive untouched, got err %v", err)
	}
}

package pipeline

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/lfsr"
	"repro/internal/partition"
	"repro/internal/soc"
)

func baseSpec(scheme partition.Scheme) Spec {
	return Spec{Scheme: scheme, Groups: 4, Partitions: 4, Patterns: 64}
}

func TestCacheCircuitHitMiss(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	cache := NewCache()

	a1, err := cache.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Stats(), (Stats{Misses: 1, SimMisses: 1}); got != want {
		t.Fatalf("after cold build: stats %+v, want %+v", got, want)
	}

	a2, err := cache.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a1 {
		t.Error("identical spec rebuilt artifacts instead of hitting the cache")
	}
	if got, want := cache.Stats(), (Stats{Hits: 1, Misses: 1, SimMisses: 1}); got != want {
		t.Fatalf("after hit: stats %+v, want %+v", got, want)
	}

	// A new scheme over the same circuit misses the full layer but reuses
	// the simulation layer: same blocks, same fault simulator, same good
	// responses — only partitions and signatures are rebuilt.
	a3, err := cache.Circuit(c, baseSpec(partition.RandomSelection{}))
	if err != nil {
		t.Fatal(err)
	}
	if a3 == a1 {
		t.Error("different scheme returned the same artifacts")
	}
	if a3.Sim != a1.Sim {
		t.Error("simulation layer not shared across schemes")
	}
	if len(a3.Blocks) == 0 || a3.Blocks[0] != a1.Blocks[0] {
		t.Error("pattern blocks not shared across schemes")
	}
	if got, want := cache.Stats(), (Stats{Hits: 1, Misses: 2, SimHits: 1, SimMisses: 1}); got != want {
		t.Fatalf("after scheme change: stats %+v, want %+v", got, want)
	}
}

func TestCacheNormalizedSpecsShareKey(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	cache := NewCache()

	zero := baseSpec(partition.TwoStep{}) // defaulted fields left at zero
	explicit := zero
	explicit.PRPGSeed = 0xACE1
	explicit.PRPGPoly = lfsr.MustPrimitivePoly(16)
	explicit.Chains = 1
	explicit.MISRPoly = zero.Normalized().MISRPoly

	a1, err := cache.Circuit(c, zero)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cache.Circuit(c, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("zero-defaulted and explicitly-defaulted specs built separate artifacts")
	}
	if got := cache.Stats(); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("stats %+v, want exactly one miss and one hit", got)
	}
}

func TestNilCacheBuildsFresh(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	var cache *ArtifactCache

	a1, err := cache.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cache.Circuit(c, baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("nil cache returned shared artifacts")
	}
	if got := cache.Stats(); got != (Stats{}) {
		t.Errorf("nil cache reported stats %+v", got)
	}
}

func TestCacheDistinguishesCircuits(t *testing.T) {
	cache := NewCache()
	a1, err := cache.Circuit(benchgen.MustGenerate("s298"), baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cache.Circuit(benchgen.MustGenerate("s526"), baseSpec(partition.Interval{}))
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("distinct circuits shared artifacts")
	}
	if got := cache.Stats(); got.Misses != 2 || got.SimMisses != 2 {
		t.Errorf("stats %+v, want two full misses and two sim misses", got)
	}
}

func TestCacheCachesErrors(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	cache := NewCache()
	bad := baseSpec(partition.Interval{})
	bad.ScanOrder = []int{0, 1, 2} // wrong length for s298's 14 cells

	if _, err := cache.Circuit(c, bad); err == nil {
		t.Fatal("truncated scan order accepted")
	}
	if _, err := cache.Circuit(c, bad); err == nil {
		t.Fatal("cached error lookup succeeded")
	}
	if got := cache.Stats(); got.Misses != 1 || got.Hits != 1 {
		t.Errorf("stats %+v, want the failed build cached (one miss, one hit)", got)
	}
}

func TestCacheSOCSharesSimAcrossTAMWidths(t *testing.T) {
	var cores []*soc.Core
	for _, name := range []string{"s298", "s526"} {
		cores = append(cores, &soc.Core{Name: name, Circuit: benchgen.MustGenerate(name)})
	}
	s, err := soc.New("mini", cores...)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()

	narrow := baseSpec(partition.TwoStep{})
	narrow.Chains = 1
	wide := baseSpec(partition.TwoStep{})
	wide.Chains = 2

	a1, err := cache.SOC(s, narrow)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := cache.SOC(s, wide)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Error("distinct TAM widths shared full artifacts")
	}
	if a1.Sim != a2.Sim {
		t.Error("TAM widths did not share the SOC simulation layer")
	}
	if got, want := cache.Stats(), (Stats{Misses: 2, SimHits: 1, SimMisses: 1}); got != want {
		t.Errorf("stats %+v, want %+v", got, want)
	}
}

// TestSOCLookupMemoizesCoreFingerprints: SOC lookups hash each core
// netlist once per cache, through the per-pointer fingerprint memo, and
// key the artifacts exactly as SOCFingerprint does.
func TestSOCLookupMemoizesCoreFingerprints(t *testing.T) {
	s := budgetSOC(t)
	cache := NewCache()
	for _, scheme := range []partition.Scheme{partition.Interval{}, partition.TwoStep{}} {
		a, err := cache.SOC(s, baseSpec(scheme))
		if err != nil {
			t.Fatal(err)
		}
		if want := a.Spec.Key(SOCFingerprint(s)); a.cacheKey != want {
			t.Errorf("cache key %q, want %q", a.cacheKey, want)
		}
	}
	if got, want := len(cache.fps), s.NumCores(); got != want {
		t.Errorf("fingerprint memo holds %d entries after two lookups, want one per core (%d)", got, want)
	}
	for _, c := range s.Cores {
		if cache.fps[c.Circuit] != CircuitFingerprint(c.Circuit) {
			t.Errorf("core %s: memoized fingerprint differs from CircuitFingerprint", c.Name)
		}
	}
}

func TestCacheConcurrentLookupBuildsOnce(t *testing.T) {
	c := benchgen.MustGenerate("s298")
	cache := NewCache()
	const callers = 8
	results := make([]*CircuitArtifacts, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := cache.Circuit(c, baseSpec(partition.TwoStep{}))
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different artifact set", i)
		}
	}
	if got := cache.Stats(); got.Misses != 1 || got.SimMisses != 1 {
		t.Errorf("stats %+v, want exactly one build", got)
	}
}

func TestSpecKeyDistinguishesFields(t *testing.T) {
	fp := CircuitFingerprint(benchgen.MustGenerate("s298"))
	base := baseSpec(partition.Interval{}).Normalized()
	variants := map[string]func(*Spec){
		"scheme":     func(s *Spec) { s.Scheme = partition.RandomSelection{} },
		"groups":     func(s *Spec) { s.Groups = 8 },
		"partitions": func(s *Spec) { s.Partitions = 8 },
		"patterns":   func(s *Spec) { s.Patterns = 128 },
		"seed":       func(s *Spec) { s.PRPGSeed = 0xBEEF },
		"ideal":      func(s *Spec) { s.Ideal = true },
		"chains":     func(s *Spec) { s.Chains = 2 },
		"order":      func(s *Spec) { s.ScanOrder = []int{1, 0, 2} },
	}
	for name, mutate := range variants {
		s := base
		mutate(&s)
		if s.Key(fp) == base.Key(fp) {
			t.Errorf("%s change did not change the key", name)
		}
	}
	// Two random-selection partitions with different seeds are the same
	// scheme value, hence the same key: the scheme's own determinism
	// guarantees identical partitions for identical keys.
	if got := base.Key(fp); got != base.Key(fp) {
		t.Errorf("key not deterministic: %q", got)
	}
}

func TestExecutorCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		for _, batch := range []int{0, 1, 3, 64} {
			const n = 103
			visits := make([]int, n)
			var mu sync.Mutex
			Executor{Workers: workers, Batch: batch}.Run(n, func() func(int) {
				local := make([]int, n)
				return func(i int) {
					local[i]++
					mu.Lock()
					visits[i]++
					mu.Unlock()
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d batch=%d: index %d visited %d times", workers, batch, i, v)
				}
			}
		}
	}
}

func TestExecutorResultsIndependentOfWorkers(t *testing.T) {
	const n = 257
	run := func(workers int) []int {
		out := make([]int, n)
		Executor{Workers: workers}.Run(n, func() func(int) {
			acc := 0 // per-worker state must not leak into results
			return func(i int) {
				acc += i
				out[i] = i * i
			}
		})
		return out
	}
	want := run(1)
	for _, workers := range []int{0, 2, 5} {
		got := run(workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestExecutorZeroJobs(t *testing.T) {
	called := false
	Executor{}.Run(0, func() func(int) {
		called = true
		return func(int) {}
	})
	if called {
		t.Error("mkWorker called for an empty job list")
	}
}

// FuzzSpecKey checks the cache-key invariants over arbitrary spec field
// combinations: keys are deterministic, normalization does not change a
// normalized spec's key, and the simulation-layer key is a prefix-stable
// component of the full key.
func FuzzSpecKey(f *testing.F) {
	f.Add(4, 4, 64, uint64(0), uint8(0), false, 0, uint8(0))
	f.Add(8, 16, 128, uint64(0xACE1), uint8(1), true, 2, uint8(2))
	f.Add(1, 1, 1, uint64(1), uint8(2), false, 7, uint8(3))
	schemes := []partition.Scheme{
		partition.Interval{}, partition.RandomSelection{},
		partition.TwoStep{}, partition.FixedInterval{},
	}
	polys := []lfsr.Poly{0, lfsr.MustPrimitivePoly(16), lfsr.MustPrimitivePoly(32)}
	f.Fuzz(func(t *testing.T, groups, partitions, patterns int, seed uint64, polySel uint8, ideal bool, chains int, schemeSel uint8) {
		s := Spec{
			Scheme:     schemes[int(schemeSel)%len(schemes)],
			Groups:     groups,
			Partitions: partitions,
			Patterns:   patterns,
			PRPGSeed:   seed,
			PRPGPoly:   polys[int(polySel)%len(polys)],
			MISRPoly:   polys[int(polySel+1)%len(polys)],
			Ideal:      ideal,
			Chains:     chains,
		}
		const fp = "fuzzfp"
		if s.Key(fp) != s.Key(fp) {
			t.Fatal("key not deterministic")
		}
		n := s.Normalized()
		if n.Key(fp) != n.Normalized().Key(fp) {
			t.Fatal("normalization is not idempotent under Key")
		}
		if n.PRPGSeed == 0 || n.PRPGPoly == 0 || n.MISRPoly == 0 || n.Chains == 0 {
			t.Fatalf("Normalized left a defaulted field at zero: %+v", n)
		}
		if !strings.HasPrefix(n.Key(fp), n.simKey(fp)) {
			t.Fatalf("full key %q does not extend sim key %q", n.Key(fp), n.simKey(fp))
		}
		other := n
		other.PRPGSeed = n.PRPGSeed + 1
		if other.Key(fp) == n.Key(fp) {
			t.Fatal("seed change did not change the key")
		}
	})
}

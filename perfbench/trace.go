package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so set-up code shared by both runs calls it unconditionally.
type tracer struct {
	epoch time.Time
	run   atomic.Int64 // id of the iteration being traced
	next  atomic.Int64
	mu    sync.Mutex
	spans []spanRec
}

// spanRec is one finished span; times are nanoseconds since the epoch.
type spanRec struct {
	ID, Parent int64
	Run        int64
	Name       string
	Start, End int64
}

type openSpan struct {
	id, parent int64
	name       string
	start      int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) open(parent int64, name string) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.next.Add(1), parent: parent, name: name, start: int64(time.Since(t.epoch))}
}

func (t *tracer) close(s openSpan) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{ID: s.id, Parent: s.parent, Run: t.run.Load(), Name: s.name, Start: s.start, End: end})
	t.mu.Unlock()
}

// runSpans returns the spans of one traced iteration.
func (t *tracer) runSpans(run int64) []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []spanRec
	for _, s := range t.spans {
		if s.Run == run {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// children's intervals cover. Children of one parent may overlap (the
// executor's jobs run on several goroutines), so coverage is their union.
func selfTimes(spans []spanRec) map[int64]int64 {
	kids := map[int64][]spanRec{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
		var covered, lo, hi int64
		open := false
		for _, c := range ch {
			a, b := max(c.Start, s.Start), min(c.End, s.End)
			if b <= a {
				continue
			}
			if open && a <= hi {
				hi = max(hi, b)
				continue
			}
			if open {
				covered += hi - lo
			}
			lo, hi, open = a, b, true
		}
		if open {
			covered += hi - lo
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerSpans maps each per-layer time metric to the span whose self time
// it sums.
var layerSpans = map[string]string{
	"benchgen.generate_s":     "benchgen.generate",
	"sim.collapse_s":          "sim.collapse",
	"partition.seed_search_s": "partition.seed_search",
	"sim.goodsim_s":           "sim.goodsim",
	"bist.engine_s":           "bist.engine",
	"bist.golden_s":           "bist.golden",
	"pipeline.fetch_s":        "pipeline.fetch",
	"sim.schedule_s":          "sim.schedule",
	"sim.kernel_s":            "sim.kernel",
	"sim.materialize_s":       "sim.materialize",
	"bist.verdicts_s":         "bist.verdicts",
	"diagnosis.prune_s":       "diagnosis.prune",
	"diagnosis.counts_s":      "diagnosis.counts",
}

// layerMetrics derives one traced iteration's per-layer metrics from its
// spans and counters. Metrics of a layer the workload never calls read 0.
func layerMetrics(spans []spanRec, counts map[string]float64) map[string]float64 {
	self := selfTimes(spans)
	selfSum := map[string]int64{}
	durSum := map[string]int64{}
	calls := map[string]int{}
	for _, s := range spans {
		selfSum[s.Name] += self[s.ID]
		durSum[s.Name] += s.End - s.Start
		calls[s.Name]++
	}
	m := map[string]float64{}
	for metric, name := range layerSpans {
		m[metric] = float64(selfSum[name]) / 1e9
	}
	for _, k := range []string{"pipeline.mem_hits", "pipeline.disk_hits", "pipeline.disk_misses", "pipeline.disk_writes",
		"sim.batches", "shard.bytes_in", "shard.bytes_out", "shard.jobs"} {
		m[k] = counts[k]
	}
	m["sim.plan_fill"] = ratio(counts["sim.fill_x_faults"], counts["sim.plan_faults"])
	m["sim.kernel_ns_per_fault"] = ratio(float64(selfSum["sim.kernel"]), float64(calls["sim.materialize"]))
	m["bist.verdicts_ns_per_fault"] = ratio(float64(selfSum["bist.verdicts"]), float64(calls["bist.verdicts"]))
	m["diagnosis.candidates_mean"] = ratio(counts["diagnosis.candidates"], counts["diagnosis.diagnosed"])
	m["diagnosis.pruned_frac"] = ratio(counts["diagnosis.candidates"]-counts["diagnosis.pruned"], counts["diagnosis.candidates"])
	m["pipeline.jobs"] = float64(calls["pipeline.job"])
	m["pipeline.busy_frac"] = ratio(float64(durSum["pipeline.job"]), float64(sweepWorkers())*float64(durSum["pipeline.executor"]))
	m["shard.sweep_s"] = float64(durSum["shard.sweep"]) / 1e9
	m["shard.local_sweep_s"] = float64(durSum["shard.local_sweep"]) / 1e9
	if durSum["shard.local_sweep"] > 0 {
		m["shard.overhead_frac"] = float64(durSum["shard.sweep"])/float64(durSum["shard.local_sweep"]) - 1
	}
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

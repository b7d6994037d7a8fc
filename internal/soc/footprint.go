package soc

// MemoryFootprint estimates the bytes of shared, read-only state this
// SOC-scope FaultSim retains: every core's fault simulator (pattern
// blocks, fault-free responses and net values) plus the assembled global
// responses, which a one-core FaultSim shares with its core. Fork-owned
// scratch is excluded. Feeds the pipeline cache's cost-accounted
// eviction.
func (fs *FaultSim) MemoryFootprint() int64 {
	const word = 8
	var n int64
	for _, s := range fs.sims {
		n += s.MemoryFootprint()
	}
	if fs.oneCore() {
		return n
	}
	for _, r := range fs.good {
		n += int64(len(r.Next)+len(r.PO)) * word
	}
	return n
}

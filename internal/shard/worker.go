package shard

import (
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/chaindiag"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/retry"
	"repro/internal/sim"
)

// ServerConfig tunes one worker process.
type ServerConfig struct {
	// Node is the worker's self-reported name in hellos and progress
	// output; "" defaults to the hostname.
	Node string
	// Workers bounds the goroutines each shard's local sweep uses
	// (core.Options.Workers); 0 selects GOMAXPROCS.
	Workers int
	// Cache is the worker's artifact cache; nil creates a private one.
	// Attach the shared disk tier before serving (or set CacheDir).
	Cache *pipeline.ArtifactCache
	// CacheDir attaches the persistent artifact tier all workers share;
	// "" runs memory-only.
	CacheDir string
	// Log, when non-nil, receives one line per lifecycle event (jobs
	// accepted, shards finished, connections closed).
	Log func(format string, args ...any)
}

// Server accepts coordinator connections and executes shard jobs. Each
// connection carries one job at a time; separate connections run
// concurrently, each job fanning out over the server's Workers.
type Server struct {
	cfg ServerConfig
	reg *deviceRegistry
}

// NewServer builds a worker server; the device registry and cache are
// shared by every connection it serves.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Node == "" {
		if host, err := os.Hostname(); err == nil {
			cfg.Node = host
		}
	}
	if cfg.Cache == nil {
		cfg.Cache = pipeline.NewCache()
	}
	return &Server{cfg: cfg, reg: newDeviceRegistry()}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log(format, args...)
	}
}

// Serve accepts connections on ln until ctx ends (which also closes the
// listener) or Accept fails, then waits for in-flight connections to
// drain. It always returns a non-nil error, ctx.Err() on clean
// shutdown — the same contract as http.Server.Serve.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := context.AfterFunc(ctx, func() { ln.Close() })
	defer stop()
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return ctxErr
			}
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.serveConn(ctx, conn)
		}()
	}
}

// serveConn speaks the shard protocol on one connection: hello, then a
// job/result loop until the peer closes or the context ends. Any
// transport or framing failure closes the connection — the coordinator
// retires it and redispatches elsewhere.
func (s *Server) serveConn(ctx context.Context, conn net.Conn) {
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
	defer stop()
	peer := conn.RemoteAddr().String()
	hello := &codec.ShardHello{
		Node:     s.cfg.Node,
		Pid:      uint32(os.Getpid()),
		Workers:  uint32(s.cfg.Workers),
		CacheDir: s.cfg.CacheDir,
	}
	if err := codec.WriteFrame(conn, codec.EncodeShardHello(hello)); err != nil {
		s.logf("%s: hello: %v", peer, err)
		return
	}
	for {
		env, hdr, err := codec.ReadFrame(conn)
		if err != nil {
			s.logf("%s: closed: %v", peer, err)
			return
		}
		if hdr.Kind != codec.KindShardJob {
			s.logf("%s: unexpected %v frame", peer, hdr.Kind)
			return
		}
		job, err := codec.DecodeShardJob(env)
		if err != nil {
			s.logf("%s: bad job frame: %v", peer, err)
			return
		}
		s.logf("%s: shard %d: kind %d, %d units", peer, job.ID, job.Kind, len(job.Indices))
		start := time.Now()
		res, jobErr := s.runJob(ctx, conn, job)
		if jobErr != nil {
			s.logf("%s: shard %d failed after %v: %v", peer, job.ID, time.Since(start).Round(time.Millisecond), jobErr)
			se := &codec.ShardError{JobID: job.ID, Transient: retry.IsTransient(jobErr), Msg: jobErr.Error()}
			if err := codec.WriteFrame(conn, codec.EncodeShardError(se)); err != nil {
				return
			}
			continue
		}
		s.logf("%s: shard %d done in %v", peer, job.ID, time.Since(start).Round(time.Millisecond))
		if err := codec.WriteFrame(conn, codec.EncodeShardResult(res)); err != nil {
			s.logf("%s: shard %d: sending result: %v", peer, job.ID, err)
			return
		}
	}
}

// options rebuilds the job's sweep options with this worker's local
// execution knobs applied.
func (s *Server) options(job *codec.ShardJob) (core.Options, error) {
	o, err := optionsFromWire(job.Spec, job.Knobs)
	if err != nil {
		return core.Options{}, err
	}
	o.Workers = s.cfg.Workers
	o.Cache = s.cfg.Cache
	o.CacheDir = s.cfg.CacheDir
	return o, nil
}

// progressChunks is how many slices a shard's work is cut into between
// progress frames. Chunking serves two masters: the coordinator sees
// liveness, and the worker notices a dead coordinator (the progress
// write fails) instead of grinding out a shard nobody will collect.
// Per-fault results are independent of chunk boundaries, so chunking
// cannot perturb verdicts.
const progressChunks = 8

// chunkBounds yields [lo, hi) slices cutting n units into at most
// progressChunks pieces.
func chunkBounds(n int) [][2]int {
	k := progressChunks
	if k > n {
		k = n
	}
	if k == 0 {
		return nil
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

func sendProgress(conn net.Conn, jobID uint64, done, total int) error {
	p := &codec.ShardProgress{JobID: jobID, Done: uint32(done), Total: uint32(total)}
	if err := codec.WriteFrame(conn, codec.EncodeShardProgress(p)); err != nil {
		return fmt.Errorf("shard: sending progress: %w", err)
	}
	return nil
}

// runJob executes one decoded job and produces its result frame.
func (s *Server) runJob(ctx context.Context, conn net.Conn, job *codec.ShardJob) (*codec.ShardResult, error) {
	switch job.Kind {
	case codec.JobStuckAt:
		return s.runFaultJob(ctx, conn, job)
	case codec.JobChain:
		return s.runChainJob(ctx, conn, job)
	}
	return nil, fmt.Errorf("shard: job kind %d not implemented", job.Kind)
}

// runFaultJob runs a stuck-at shard on one core of the job's device in
// progress-reporting chunks. The device kind picks only the bench
// constructor: a circuit ref keeps NewCircuitBench's custom scan order
// and circuit design rules, a preset gets the SOC bench. The per-fault
// verdict deltas are appended in global index order (shard indices are
// ascending and chunks walk them in order), so the result needs no
// sorting.
func (s *Server) runFaultJob(ctx context.Context, conn net.Conn, job *codec.ShardJob) (*codec.ShardResult, error) {
	o, err := s.options(job)
	if err != nil {
		return nil, err
	}
	faults := faultsFromWire(job.Faults)
	if job.FaultHash != "" {
		if got := pipeline.FaultSetHash(faults); got != job.FaultHash {
			return nil, fmt.Errorf("shard: shard %d fault-set hash mismatch: descriptor %s, payload %s", job.ID, job.FaultHash, got)
		}
	}
	dev, err := s.reg.resolve(job.Device)
	if err != nil {
		return nil, err
	}
	if int(job.Core) >= len(dev.Cores) {
		return nil, fmt.Errorf("shard: core %d outside SOC %s (%d cores)", job.Core, dev.Name, len(dev.Cores))
	}
	var bench *core.SOCBench
	if job.Device.Kind == codec.DeviceSOC {
		bench, err = core.NewSOCBench(dev, o)
	} else {
		var cb *core.CircuitBench
		if cb, err = core.NewCircuitBench(dev.Cores[0].Circuit, o); err == nil {
			bench = cb.Device()
		}
	}
	if err != nil {
		return nil, err
	}

	res := &codec.ShardResult{
		JobID:     job.ID,
		Kind:      job.Kind,
		LaneCap:   uint32(laneCap(o.Lanes)),
		Diagnoses: make([]codec.WireDiagnosis, 0, len(faults)),
	}
	total := len(faults)
	for _, b := range chunkBounds(total) {
		lo, hi := b[0], b[1]
		k := lo
		study, err := bench.RunCoreObservedContext(ctx, int(job.Core), faults[lo:hi], func(fd *core.FaultDiagnosis) {
			res.Diagnoses = append(res.Diagnoses, diagnosisToWire(job.Indices[k], fd))
			k++
		})
		if err != nil {
			return nil, err
		}
		res.PlanBatches += uint32(study.PlanBatches)
		if err := sendProgress(conn, job.ID, hi, total); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// laneCap mirrors sim.BatchOptions' lane clamping so the result frame
// reports the cap the worker's plans actually used.
func laneCap(lanes int) int {
	if lanes < 1 || lanes > sim.MaxBatchLanes {
		return sim.MaxBatchLanes
	}
	return lanes
}

// runChainJob runs a chain-fault injection shard: injection i plants
// ChainFault{Position: i/2, Stuck: i%2}, exactly chaindiag's sweep.
func (s *Server) runChainJob(ctx context.Context, conn net.Conn, job *codec.ShardJob) (*codec.ShardResult, error) {
	c, err := s.reg.circuitOf(job.Device)
	if err != nil {
		return nil, err
	}
	if len(job.Spec.ScanOrder) != c.NumDFFs() {
		return nil, fmt.Errorf("shard: chain shard %d order covers %d of %d cells", job.ID, len(job.Spec.ScanOrder), c.NumDFFs())
	}
	order := convert[int](job.Spec.ScanOrder)
	res := &codec.ShardResult{
		JobID:  job.ID,
		Kind:   job.Kind,
		Chains: make([]codec.WireChainOutcome, 0, len(job.Indices)),
	}
	total := len(job.Indices)
	for _, b := range chunkBounds(total) {
		lo, hi := b[0], b[1]
		for _, idx := range job.Indices[lo:hi] {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			i := int(idx)
			if i >= 2*c.NumDFFs() {
				return nil, fmt.Errorf("shard: chain shard %d injection %d outside chain of %d cells", job.ID, i, c.NumDFFs())
			}
			o, err := chaindiag.Inject(c, order, i)
			if err != nil {
				return nil, err
			}
			res.Chains = append(res.Chains, codec.WireChainOutcome{Index: idx, Located: o.Located, Exact: o.Exact, Cands: uint32(o.Cands)})
		}
		if err := sendProgress(conn, job.ID, hi, total); err != nil {
			return nil, err
		}
	}
	return res, nil
}

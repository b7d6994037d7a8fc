package shard

import (
	"context"
	"net"
	"strings"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/sim"
)

// startFakeWorker serves the hello handshake and then hands the
// connection to handler — a scripted worker for failure injection.
// The accept loop and its per-connection goroutines are owned by the
// listener, not this scope: ln.Close at test cleanup unblocks Accept
// and the handlers return with their connections (goleak exemption).
func startFakeWorker(t *testing.T, handler func(conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if err := codec.WriteFrame(conn, codec.EncodeShardHello(&codec.ShardHello{Node: "fake"})); err != nil {
					return
				}
				handler(conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// diesMidShard accepts a job, reports a little progress, and drops the
// connection — a worker crashing in the middle of a shard.
func diesMidShard(conn net.Conn) {
	env, _, err := codec.ReadFrame(conn)
	if err != nil {
		return
	}
	job, err := codec.DecodeShardJob(env)
	if err != nil {
		return
	}
	codec.WriteFrame(conn, codec.EncodeShardProgress(&codec.ShardProgress{
		JobID: job.ID, Done: 1, Total: uint32(len(job.Indices)),
	}))
}

// alwaysFailsPermanently reports every job as a permanent failure.
func alwaysFailsPermanently(conn net.Conn) {
	for {
		env, _, err := codec.ReadFrame(conn)
		if err != nil {
			return
		}
		job, err := codec.DecodeShardJob(env)
		if err != nil {
			return
		}
		frame := codec.EncodeShardError(&codec.ShardError{
			JobID: job.ID, Transient: false, Msg: "injected permanent failure",
		})
		if err := codec.WriteFrame(conn, frame); err != nil {
			return
		}
	}
}

func degradedFixture(t *testing.T) (*core.CircuitBench, core.Options, []sim.Fault, []*core.FaultDiagnosis, codec.DeviceRef) {
	t.Helper()
	c := benchgen.MustGenerate("s953")
	o := core.Options{Scheme: partition.TwoStep{}, Groups: 4, Partitions: 4, Patterns: 64}
	bench, err := core.NewCircuitBench(c, o)
	if err != nil {
		t.Fatal(err)
	}
	faults := sim.SampleFaults(bench.Faults(), 60, 21)
	var want []*core.FaultDiagnosis
	if _, err := bench.RunObservedContext(context.Background(), faults, func(fd *core.FaultDiagnosis) {
		want = append(want, fd)
	}); err != nil {
		t.Fatal(err)
	}
	return bench, o, faults, want, ProfileRef("s953", 0, 1, c)
}

// A worker dying mid-shard must not lose the shard: the connection is
// retired and the shard re-dispatched to a healthy worker, yielding the
// complete bit-identical study.
func TestShardWorkerDeathRecovered(t *testing.T) {
	_, o, faults, want, ref := degradedFixture(t)
	healthy := startWorker(t, ServerConfig{Node: "good", Workers: 1})
	flaky := startFakeWorker(t, diesMidShard)
	conns, err := DialAll(context.Background(), []string{flaky, healthy})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Conns: conns}
	var got []*core.FaultDiagnosis
	study, err := co.RunCircuit(context.Background(), ref, o, faults, nil, func(fd *core.FaultDiagnosis) {
		got = append(got, fd)
	})
	if err != nil {
		t.Fatalf("run failed despite a healthy worker: %v", err)
	}
	if study.Completeness.Observed != len(faults) {
		t.Fatalf("observed %d of %d after recovery", study.Completeness.Observed, len(faults))
	}
	if len(got) != len(want) {
		t.Fatalf("observed %d of %d diagnoses", len(got), len(want))
	}
	for i := range want {
		sameDiag(t, i, want[i], got[i])
	}
}

// With every worker dead, the run must fail cleanly — no hang, no
// fabricated verdicts — and report zero observed faults.
func TestShardAllWorkersDead(t *testing.T) {
	_, o, faults, _, ref := degradedFixture(t)
	conns, err := DialAll(context.Background(), []string{
		startFakeWorker(t, diesMidShard),
		startFakeWorker(t, diesMidShard),
	})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Conns: conns}
	study, err := co.RunCircuit(context.Background(), ref, o, faults, nil, nil)
	if err == nil {
		t.Fatal("run succeeded with no live workers")
	}
	if study.Completeness.Observed != 0 {
		t.Fatalf("observed %d faults from dead workers", study.Completeness.Observed)
	}
	if study.Completeness.Scheduled != len(faults) {
		t.Fatalf("scheduled %d, want %d", study.Completeness.Scheduled, len(faults))
	}
}

// A permanent worker-reported failure must surface as the run error
// while every shard that did complete merges soundly: each observed
// diagnosis is bit-identical to the single-process sweep's.
func TestShardPermanentFailureSoundSubset(t *testing.T) {
	_, o, faults, want, ref := degradedFixture(t)
	healthy := startWorker(t, ServerConfig{Node: "good", Workers: 1})
	broken := startFakeWorker(t, alwaysFailsPermanently)
	conns, err := DialAll(context.Background(), []string{broken, healthy})
	if err != nil {
		t.Fatal(err)
	}
	co := &Coordinator{Conns: conns}
	byFault := make(map[sim.Fault]*core.FaultDiagnosis, len(want))
	for _, fd := range want {
		byFault[fd.Fault] = fd
	}
	var got []*core.FaultDiagnosis
	study, err := co.RunCircuit(context.Background(), ref, o, faults, nil, func(fd *core.FaultDiagnosis) {
		got = append(got, fd)
	})
	if err == nil {
		t.Fatal("permanent failure did not surface")
	}
	if !strings.Contains(err.Error(), "injected permanent failure") {
		t.Fatalf("error does not name the worker failure: %v", err)
	}
	if study.Completeness.Observed != len(got) {
		t.Fatalf("completeness %d but %d observed", study.Completeness.Observed, len(got))
	}
	for i, fd := range got {
		ref, ok := byFault[fd.Fault]
		if !ok {
			t.Fatalf("observed fault %v not in the dispatched list", fd.Fault)
		}
		sameDiag(t, i, ref, fd)
	}
}

// TestValidateResultRejectsShortPartitionCounts: a result frame is
// outside input. A detected diagnosis whose per-partition counts do not
// cover every partition would index past its list in the merge, so
// validateResult must refuse it, naming the shard, before it gets there.
func TestValidateResultRejectsShortPartitionCounts(t *testing.T) {
	job := &codec.ShardJob{
		ID: 5, Kind: codec.JobStuckAt, Core: 0,
		Spec:    codec.WireSpec{Partitions: 4},
		Faults:  []codec.WireFault{{Net: 1}, {Net: 2}},
		Indices: []uint32{3, 8},
	}
	result := func(byPartition []uint32) *codec.ShardResult {
		return &codec.ShardResult{JobID: 5, Kind: codec.JobStuckAt, Diagnoses: []codec.WireDiagnosis{
			{Index: 3, Detected: true, Actual: []uint32{0}, ByPartition: byPartition, Observed: 4, Scheduled: 4},
			{Index: 8, Observed: 4, Scheduled: 4},
		}}
	}
	if err := validateResult(job, result([]uint32{9, 5, 3, 2})); err != nil {
		t.Fatalf("well-formed result rejected: %v", err)
	}
	for _, bad := range [][]uint32{nil, {9}, {9, 5, 3, 2, 1}} {
		err := validateResult(job, result(bad))
		if err == nil {
			t.Fatalf("%d per-partition counts for 4 partitions accepted", len(bad))
		}
		if !strings.Contains(err.Error(), "shard 5") {
			t.Fatalf("rejection should name the shard, got: %v", err)
		}
	}
}

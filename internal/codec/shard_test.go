package codec_test

import (
	"bytes"
	"crypto/sha256"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codec"
)

func sampleShardJob() *codec.ShardJob {
	return &codec.ShardJob{
		ID:   7,
		Kind: codec.JobStuckAt,
		Device: codec.DeviceRef{
			Kind: codec.DeviceSOC, Name: "socmini", Fingerprint: "abc123",
		},
		Core: 2,
		Spec: codec.WireSpec{
			Scheme: codec.WireScheme{
				Kind:                      codec.SchemeTwoStep,
				TwoStepIntervalPartitions: 4,
				IntervalPoly:              0x1100b,
				IntervalLenBits:           9,
				IntervalSeeds:             []uint64{1, 2, 3},
				RandomPoly:                0x1100b,
				RandomSeed:                99,
			},
			Groups: 4, Partitions: 8, Patterns: 128,
			PRPGSeed: 0xACE1, PRPGPoly: 0x1100b, MISRPoly: 0x1100b,
			Ideal: true, Chains: 4,
			ScanOrder: []uint32{2, 0, 1},
		},
		Knobs: codec.WireKnobs{
			NoiseIntermittent: 0.25, NoiseFlip: 0.01, NoiseAbort: 0.005,
			NoiseSeed: 11, MaxRetries: 3, VoteThreshold: 2, Lanes: 64,
		},
		FaultHash: "deadbeef",
		Faults: []codec.WireFault{
			{Net: 4, Gate: -1, Pin: 0, Stuck: 1},
			{Net: 9, Gate: 3, Pin: 2, Stuck: 0},
		},
		Indices: []uint32{10, 42},
	}
}

func TestShardWireRoundTrip(t *testing.T) {
	hello := &codec.ShardHello{Node: "w0", Pid: 1234, Workers: 8, CacheDir: "/tmp/cache"}
	gotHello, err := codec.DecodeShardHello(codec.EncodeShardHello(hello))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hello, gotHello) {
		t.Fatalf("hello: %+v != %+v", gotHello, hello)
	}

	job := sampleShardJob()
	gotJob, err := codec.DecodeShardJob(codec.EncodeShardJob(job))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(job, gotJob) {
		t.Fatalf("job:\nwant %+v\ngot  %+v", job, gotJob)
	}

	cjob := circuitShardJob()
	gotC0, err := codec.DecodeShardJob(codec.EncodeShardJob(cjob))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cjob, gotC0) {
		t.Fatalf("circuit job:\nwant %+v\ngot  %+v", cjob, gotC0)
	}

	res := &codec.ShardResult{
		JobID: 7, Kind: codec.JobStuckAt, PlanBatches: 3, LaneCap: 64,
		Diagnoses: []codec.WireDiagnosis{
			{
				Index: 10, Detected: true,
				Actual: []uint32{1, 5}, Candidates: []uint32{1, 5, 9},
				Pruned: []uint32{1, 5}, Confirmed: []uint32{1},
				ByPartition: []uint32{12, 7, 3, 2}, Observed: 4, Scheduled: 4,
				HasNoise:           true,
				BaselineCandidates: []uint32{1, 5}, BaselinePruned: []uint32{1},
				BaselineConfirmed: nil,
				Reliability:       [6]uint64{2, 6, 1, 5, 1, 0},
			},
			{Index: 42, Detected: false, Observed: 4, Scheduled: 4},
		},
	}
	gotRes, err := codec.DecodeShardResult(codec.EncodeShardResult(res))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, gotRes) {
		t.Fatalf("result:\nwant %+v\ngot  %+v", res, gotRes)
	}

	cres := &codec.ShardResult{
		JobID: 9, Kind: codec.JobChain,
		Chains: []codec.WireChainOutcome{
			{Index: 0, Located: true, Exact: true, Cands: 1},
			{Index: 5, Located: false, Exact: false, Cands: 3},
		},
	}
	gotC, err := codec.DecodeShardResult(codec.EncodeShardResult(cres))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cres, gotC) {
		t.Fatalf("chain result:\nwant %+v\ngot  %+v", cres, gotC)
	}

	se := &codec.ShardError{JobID: 7, Transient: true, Msg: "cache tier unavailable"}
	gotErr, err := codec.DecodeShardError(codec.EncodeShardError(se))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(se, gotErr) {
		t.Fatalf("error: %+v != %+v", gotErr, se)
	}

	pr := &codec.ShardProgress{JobID: 7, Done: 3, Total: 9}
	gotPr, err := codec.DecodeShardProgress(codec.EncodeShardProgress(pr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pr, gotPr) {
		t.Fatalf("progress: %+v != %+v", gotPr, pr)
	}
}

func TestShardJobValidation(t *testing.T) {
	bad := sampleShardJob()
	bad.Indices = bad.Indices[:1]
	if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
		t.Error("index/fault count mismatch accepted")
	}
	for _, job := range []*codec.ShardJob{sampleShardJob(), circuitShardJob()} {
		bad = job
		bad.Core = -1
		if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
			t.Errorf("device kind %d: stuck-at job without a core accepted", bad.Device.Kind)
		}
	}
	// Kind 1 (revision 1's circuit stuck-at job) and kind 4 (revision
	// 2's transition job) are retired.
	for _, kind := range []codec.JobKind{0, 1, 4, 99} {
		bad = circuitShardJob()
		bad.Kind = kind
		if _, err := codec.DecodeShardJob(codec.EncodeShardJob(bad)); err == nil {
			t.Errorf("job kind %d accepted", kind)
		}
		res := &codec.ShardResult{JobID: 1, Kind: kind}
		if _, err := codec.DecodeShardResult(codec.EncodeShardResult(res)); err == nil {
			t.Errorf("result kind %d accepted", kind)
		}
	}
}

// circuitShardJob is a stuck-at job on a full-scan circuit: the
// circuit's one-core device, core 0.
func circuitShardJob() *codec.ShardJob {
	return &codec.ShardJob{
		ID:   3,
		Kind: codec.JobStuckAt,
		Device: codec.DeviceRef{
			Kind: codec.DeviceProfile, Name: "s953", Scale: 1, Fingerprint: "ff",
		},
		Core:      0,
		Spec:      codec.WireSpec{Scheme: codec.WireScheme{Kind: codec.SchemeFixed}, Groups: 4, Partitions: 8, Patterns: 128, ScanOrder: []uint32{1, 0}},
		FaultHash: "cafe",
		Faults:    []codec.WireFault{{Net: 4, Gate: -1, Pin: 0, Stuck: 0}},
		Indices:   []uint32{5},
	}
}

// TestShardRejectsOldRevisions forges intact revision-1 and revision-2
// frames of every shard message: each decoder refuses them, so peers of
// different protocol revisions refuse each other at the hello.
func TestShardRejectsOldRevisions(t *testing.T) {
	for _, tc := range []struct {
		env    []byte
		decode func([]byte) error
	}{
		{codec.EncodeShardHello(&codec.ShardHello{Node: "w"}), func(d []byte) error { _, err := codec.DecodeShardHello(d); return err }},
		{codec.EncodeShardJob(circuitShardJob()), func(d []byte) error { _, err := codec.DecodeShardJob(d); return err }},
		{codec.EncodeShardResult(&codec.ShardResult{JobID: 1, Kind: codec.JobStuckAt}), func(d []byte) error { _, err := codec.DecodeShardResult(d); return err }},
		{codec.EncodeShardError(&codec.ShardError{JobID: 1, Msg: "x"}), func(d []byte) error { _, err := codec.DecodeShardError(d); return err }},
		{codec.EncodeShardProgress(&codec.ShardProgress{JobID: 1, Done: 1, Total: 2}), func(d []byte) error { _, err := codec.DecodeShardProgress(d); return err }},
	} {
		if err := tc.decode(tc.env); err != nil {
			t.Fatalf("pristine frame rejected: %v", err)
		}
		for _, version := range []uint16{1, 2} {
			old := forgeVersion(t, tc.env, version)
			err := tc.decode(old)
			if err == nil {
				h, _ := codec.Inspect(old)
				t.Fatalf("revision-%d %s frame accepted", version, h.Kind)
			}
			if !strings.Contains(err.Error(), "version") {
				t.Fatalf("rejection should name the version mismatch, got: %v", err)
			}
		}
	}
}

// forgeVersion rewrites an envelope's format version and reseals it, so
// the result inspects cleanly and only the version differs.
func forgeVersion(t *testing.T, env []byte, version uint16) []byte {
	t.Helper()
	data := append([]byte(nil), env...)
	data[6], data[7] = byte(version), byte(version>>8) // little-endian
	sum := sha256.Sum256(data[:len(data)-sha256.Size])
	copy(data[len(data)-sha256.Size:], sum[:])
	if h, err := codec.Inspect(data); err != nil || h.Version != version {
		t.Fatalf("forged v%d envelope should inspect cleanly, got version %d, err %v", version, h.Version, err)
	}
	return data
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	envs := [][]byte{
		codec.EncodeShardHello(&codec.ShardHello{Node: "a"}),
		codec.EncodeShardJob(sampleShardJob()),
		codec.EncodeShardProgress(&codec.ShardProgress{JobID: 1, Done: 1, Total: 2}),
	}
	for _, env := range envs {
		if err := codec.WriteFrame(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	for i, env := range envs {
		got, hdr, err := codec.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, env) {
			t.Fatalf("frame %d: bytes differ", i)
		}
		if hdr.PayloadLen != len(env)-32-16 {
			t.Fatalf("frame %d: header payload %d", i, hdr.PayloadLen)
		}
	}
	if _, _, err := codec.ReadFrame(&buf); err != io.EOF {
		t.Fatalf("clean end: %v, want io.EOF", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := codec.WriteFrame(&buf, codec.EncodeShardHello(&codec.ShardHello{Node: "a"})); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	for cut := 1; cut < len(whole); cut++ {
		r := bytes.NewReader(whole[:cut])
		if _, _, err := codec.ReadFrame(r); err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(whole))
		} else if err == io.EOF {
			t.Fatalf("truncation at %d reported clean EOF", cut)
		}
	}
}

// FuzzShardFrame drives arbitrary byte streams at the frame reader and
// every shard-message decoder: whatever the bytes, the outcome is a
// clean error or a valid message — never a panic, never a hang.
func FuzzShardFrame(f *testing.F) {
	seed := func(env []byte) {
		var buf bytes.Buffer
		codec.WriteFrame(&buf, env)
		f.Add(buf.Bytes())
		// Corrupt one header byte and one payload byte.
		b := append([]byte(nil), buf.Bytes()...)
		b[4] ^= 0xFF
		f.Add(b)
		b = append([]byte(nil), buf.Bytes()...)
		b[len(b)/2] ^= 0x01
		f.Add(b)
		f.Add(buf.Bytes()[:len(buf.Bytes())/2])
	}
	seed(codec.EncodeShardHello(&codec.ShardHello{Node: "w", Pid: 1, Workers: 2, CacheDir: "/c"}))
	seed(codec.EncodeShardJob(sampleShardJob()))
	seed(codec.EncodeShardJob(circuitShardJob()))
	seed(codec.EncodeShardResult(&codec.ShardResult{
		JobID: 1, Kind: codec.JobStuckAt,
		Diagnoses: []codec.WireDiagnosis{{Index: 0, Detected: true, Actual: []uint32{1}, ByPartition: []uint32{1}, Observed: 1, Scheduled: 1}},
	}))
	seed(codec.EncodeShardError(&codec.ShardError{JobID: 1, Transient: true, Msg: "x"}))
	seed(codec.EncodeShardProgress(&codec.ShardProgress{JobID: 1, Done: 1, Total: 2}))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			env, hdr, err := codec.ReadFrame(r)
			if err != nil {
				return
			}
			switch hdr.Kind {
			case codec.KindShardHello:
				codec.DecodeShardHello(env)
			case codec.KindShardJob:
				codec.DecodeShardJob(env)
			case codec.KindShardResult:
				codec.DecodeShardResult(env)
			case codec.KindShardError:
				codec.DecodeShardError(env)
			case codec.KindShardProgress:
				codec.DecodeShardProgress(env)
			default:
				// Fuzzed frames can carry any kind; non-shard payloads
				// have their own decoders and are skipped here.
			}
		}
	})
}

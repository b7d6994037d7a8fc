package cli

import (
	"flag"
	"io"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestSharedFlagBounds parses every bound of every shared flag through
// the registered flag sets and checks Validate's verdict and message.
func TestSharedFlagBounds(t *testing.T) {
	maxLanes := strconv.Itoa(sim.MaxBatchLanes)
	for _, tc := range []struct {
		args []string
		err  string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-workers", "0"}, ""},
		{[]string{"-workers", "1"}, ""},
		{[]string{"-workers", "-1"}, "-workers must be non-negative, got -1"},
		{[]string{"-lanes", "0"}, ""},
		{[]string{"-lanes", "1"}, ""},
		{[]string{"-lanes", maxLanes}, ""},
		{[]string{"-lanes", "-1"}, "-lanes -1 out of range 0..256"},
		{[]string{"-lanes", strconv.Itoa(sim.MaxBatchLanes + 1)}, "-lanes 257 out of range 0..256"},
		{[]string{"-timeout", "0"}, ""},
		{[]string{"-timeout", "1ns"}, ""},
		{[]string{"-timeout", "-1ns"}, "-timeout must be non-negative, got -1ns"},
		{[]string{"-cachemb", "0"}, ""},
		{[]string{"-cachemb", "1048576"}, ""},
		{[]string{"-cachemb", "-1"}, "-cachemb must be non-negative, got -1"},
		{[]string{"-cachemb", "1048577"}, "-cachemb must be at most 1048576 (1 TiB), got 1048577"},
		{[]string{"-shards", "0"}, ""},
		{[]string{"-shards", "1"}, ""},
		{[]string{"-shards", "-1"}, "-shards must be non-negative, got -1"},
		{[]string{"-shards", "-3", "-connect", "127.0.0.1:1"}, "-shards must be non-negative, got -3"},
		// The run flags are checked before -shards, -workers first.
		{[]string{"-shards", "-1", "-workers", "-2", "-lanes", "-3"}, "-workers must be non-negative, got -2"},
		{[]string{"-lanes", "-3", "-timeout", "-1s"}, "-lanes -3 out of range 0..256"},
	} {
		name := strings.Join(tc.args, " ")
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		run, remote := RegisterRunFlags(fs), RegisterShardFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%q: parse: %v", name, err)
		}
		err := run.Validate()
		if err == nil {
			err = remote.Validate()
		}
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%q rejected: %v", name, err)
		case tc.err != "" && err == nil:
			t.Errorf("%q accepted, want %q", name, tc.err)
		case tc.err != "" && err.Error() != tc.err:
			t.Errorf("%q: got %q, want %q", name, err, tc.err)
		}
	}
}

// TestFlagChecks covers the single-flag checks sharddiag applies to its
// own -timeout, -shard-timeout and -retries.
func TestFlagChecks(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{NonNegative("retries", 0), ""},
		{NonNegative("retries", 3), ""},
		{NonNegative("retries", -1), "-retries must be non-negative, got -1"},
		{NonNegativeDuration("shard-timeout", 0), ""},
		{NonNegativeDuration("shard-timeout", time.Second), ""},
		{NonNegativeDuration("shard-timeout", -time.Second), "-shard-timeout must be non-negative, got -1s"},
	} {
		got := ""
		if tc.err != nil {
			got = tc.err.Error()
		}
		if got != tc.want {
			t.Errorf("got %q, want %q", got, tc.want)
		}
	}
}

// TestRegisteredDefaults pins the shared flags' names and zero defaults:
// the commands' -h output is built from them.
func TestRegisteredDefaults(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterRunFlags(fs)
	RegisterShardFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		names = append(names, f.Name)
		if f.DefValue != "0" && f.DefValue != "" && f.DefValue != "0s" {
			t.Errorf("-%s defaults to %q", f.Name, f.DefValue)
		}
	})
	want := "cachedir cachemb connect cpuprofile lanes memprofile shards timeout workers"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("registered %s, want %s", got, want)
	}
}

// TestNewCacheBudget checks -cachemb's MiB-to-bytes conversion.
func TestNewCacheBudget(t *testing.T) {
	if NewCache(0) == nil || NewCache(3) == nil {
		t.Fatal("NewCache returned nil")
	}
	if b := NewCache(3).Budget(); b.MaxBytes != 3<<20 {
		t.Fatalf("budget %d bytes, want %d", b.MaxBytes, 3<<20)
	}
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// envRecord travels with every result so numbers from different hosts or
// kernel paths are never compared as if alike.
type envRecord struct {
	Workload    string `json:"workload"`
	Seed        int64  `json:"seed"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	CPUModel    string `json:"cpu_model"`
	BatchKernel string `json:"batch_kernel"`
}

func collectEnv(workload string, seed int64) envRecord {
	model, flags := cpuInfo()
	return envRecord{
		Workload:    workload,
		Seed:        seed,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    model,
		BatchKernel: batchKernel(runtime.GOARCH, flags),
	}
}

// batchKernel names the batch-kernel path the sim package dispatches to.
// Its CPUID check is internal, so this repeats it from the outside: the
// AVX2 kernels exist only on amd64 and run when the CPU has AVX2 with
// YMM state enabled, which Linux reports as the "avx2" cpuinfo flag.
func batchKernel(goarch string, flags []string) string {
	if goarch != "amd64" {
		return "scalar"
	}
	for _, f := range flags {
		if f == "avx2" {
			return "avx2"
		}
	}
	return "scalar"
}

// cpuInfo reads the first processor's model name and flags from
// /proc/cpuinfo; elsewhere it reports "unknown" and no flags.
func cpuInfo() (model string, flags []string) {
	model = "unknown"
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return model, nil
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		switch strings.TrimSpace(key) {
		case "model name":
			if model == "unknown" {
				model = strings.TrimSpace(val)
			}
		case "flags":
			if flags == nil {
				flags = strings.Fields(val)
			}
		}
	}
	return model, flags
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or 0 where
// /proc/self/status is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// hostEnv records what a result was measured on, so a comparison of
// runs from different hosts or CPU counts is visible as such.
type hostEnv struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

func readHostEnv() *hostEnv {
	return &hostEnv{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
		Commit:     gitCommit(),
	}
}

// procField returns the value of the first "key: value" line of a
// /proc file, or "" when the file or the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB,
// which Linux reports in KiB as the rusage maximum RSS.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gitCommit reads the checked-out commit from .git in the working
// directory without running git; "" outside a repository.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return ""
}

// memSnap is the part of the runtime's memory statistics the traced
// run reports per operation.
type memSnap struct {
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func readMemSnap() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// runtimeMetrics fills the runtime.* per-layer metrics for ops
// operations between two snapshots.
func runtimeMetrics(oc *outcome, before, after memSnap, ops int) {
	oc.Values["runtime.alloc_bytes_per_op"] = ratio(float64(after.alloc-before.alloc), float64(ops))
	oc.Values["runtime.gc_cycles"] = float64(after.gcs - before.gcs)
	oc.Values["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6
}

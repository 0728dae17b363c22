package main

import (
	"runtime"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

func schedAffinity(trap uintptr, m *cpuMask) error {
	_, _, e := syscall.RawSyscall(trap, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	if e != 0 {
		return e
	}
	return nil
}

// cpuRotor moves the calling goroutine's thread from CPU to CPU. The
// engine workloads time each pass on the next allowed CPU, so a cell's
// best time is not hostage to one CPU that a busy neighbour slows for
// the whole run.
type cpuRotor struct {
	orig cpuMask
	cpus []int
}

// newCPURotor locks the goroutine to its thread and reads the CPUs it
// may run on; with fewer than two it rotates nothing.
func newCPURotor() *cpuRotor {
	runtime.LockOSThread()
	r := &cpuRotor{}
	if schedAffinity(syscall.SYS_SCHED_GETAFFINITY, &r.orig) != nil {
		return r
	}
	for i := 0; i < len(r.orig)*64; i++ {
		if r.orig[i/64]&(1<<(i%64)) != 0 {
			r.cpus = append(r.cpus, i)
		}
	}
	return r
}

// next pins the thread to the n-th allowed CPU, cyclically. Pinning
// is a measurement aid: where the kernel refuses it the thread runs
// wherever it is scheduled.
func (r *cpuRotor) next(n int) {
	if len(r.cpus) < 2 {
		return
	}
	var m cpuMask
	c := r.cpus[n%len(r.cpus)]
	m[c/64] = 1 << (c % 64)
	_ = schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &m)
}

// stop restores the thread's CPUs and unlocks it.
func (r *cpuRotor) stop() {
	if len(r.cpus) >= 2 {
		_ = schedAffinity(syscall.SYS_SCHED_SETAFFINITY, &r.orig)
	}
	runtime.UnlockOSThread()
}

package main

import (
	"runtime"
	"syscall"
	"time"
)

// procSnap is a whole-process resource reading taken at a phase boundary.
type procSnap struct {
	cpu    time.Duration // user + system
	allocs uint64
	gcs    uint32
}

func readProc() procSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSnap{
		cpu:    time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocs: ms.Mallocs,
		gcs:    ms.NumGC,
	}
}

// procDelta is the cost of one measured phase.
type procDelta struct {
	cpu    time.Duration
	allocs uint64
	gcs    uint32
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{cpu: b.cpu - a.cpu, allocs: b.allocs - a.allocs, gcs: b.gcs - a.gcs}
}

// peakRSSMB returns the process's peak resident set size (Linux reports
// ru_maxrss in KiB). Each workload, and each half of a traced run, has a
// process of its own, so this is that run's peak alone.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

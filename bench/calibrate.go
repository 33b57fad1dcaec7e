package main

// calibrate.go is the reference kernel that puts the benchmark's times on
// one scale. On a shared host, other tenants can slow this process by half
// or more for minutes at a time. CPU time rises with wall time when that
// happens, so no clock the process reads tells a slow host from slow code.
// The kernel is a fixed job that calls none of detobj's code. Timed just
// before and just after every set-up and every repetition, it says how
// fast the host ran then, and each raw time is scaled by refNominalS over
// the kernel's time around it.
//
// A busy host does not slow all work alike: on the machine the benchmark
// was built on, plain arithmetic slowed least, and map churn, fresh pages
// and page faults slowed about as much as detobj's jobs, which build maps,
// allocate and grow their heap all the time. So the kernel is about 55%
// map churn and 45% fresh pages; with that mix, the runs of every
// workload spread least (README.md gives the numbers).

import (
	"fmt"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// refNominalS fixes the scale's unit: a scaled time is the raw time on a
// host that runs the kernel in refNominalS. It is about the kernel's
// median on the machine the benchmark was built on, a 2-vCPU Intel Xeon
// (Go 1.24, GOMAXPROCS=1).
const refNominalS = 0.016

// refSample is one timing of the kernel.
type refSample struct{ wall, cpu float64 }

// reference holds the kernel's map. Nothing the workload does may reach
// the kernel's time, so the kernel allocates nothing on the Go heap (the
// GC's pace stays the workload's), takes its fresh pages straight from the
// OS, and warms its map before each timing (the workload's heap cannot
// have evicted it).
type reference struct {
	m    map[uint64]uint64
	keys []uint64
	x    uint64 // xorshift state
	sink uint64
}

func newReference() (*reference, error) {
	r := &reference{m: make(map[uint64]uint64, 1<<13), keys: make([]uint64, 1<<12), x: 88172645463325252}
	if err := r.kernel(); err != nil {
		return nil, err
	}
	return r, nil
}

// measure times one run of the kernel. It collects garbage first, so that
// no GC cycle the workload started runs on into the timing.
func (r *reference) measure() (refSample, error) {
	runtime.GC()
	r.churnMap(1)
	c0 := cpuSeconds()
	t0 := time.Now()
	if err := r.kernel(); err != nil {
		return refSample{}, err
	}
	return refSample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}, nil
}

// kernel is the fixed job.
func (r *reference) kernel() error {
	r.churnMap(15)
	if err := r.freshPages(2<<20, 1); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if err := r.freshPages(4<<20, 4096); err != nil {
			return err
		}
	}
	return nil
}

func (r *reference) xorshift() uint64 {
	r.x ^= r.x << 13
	r.x ^= r.x >> 7
	r.x ^= r.x << 17
	return r.x
}

// churnMap refills the map with random keys, looks each key's neighbour
// up and sorts the keys, rounds times: hashing, probing and comparing, as
// in the engines' tables and the objects' state keys.
func (r *reference) churnMap(rounds int) {
	var s uint64
	for round := 0; round < rounds; round++ {
		clear(r.m)
		for i := range r.keys {
			k := r.xorshift() & 0xffff
			r.m[k] += uint64(i)
			r.keys[i] = k
		}
		for _, k := range r.keys {
			s += r.m[k^1]
		}
		slices.Sort(r.keys)
		s += r.keys[len(r.keys)/2]
	}
	r.sink += s
}

// freshPages maps size bytes of new memory, writes every stride-th byte
// and unmaps it: the page faults and first writes a growing heap costs.
func (r *reference) freshPages(size, stride int) error {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return fmt.Errorf("reference kernel: mapping %d bytes: %w", size, err)
	}
	for i := 0; i < len(b); i += stride {
		b[i] = byte(i)
	}
	r.sink += uint64(b[len(b)/2])
	if err := syscall.Munmap(b); err != nil {
		return fmt.Errorf("reference kernel: unmapping %d bytes: %w", size, err)
	}
	return nil
}

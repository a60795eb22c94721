package main

import (
	"slices"
	"time"
)

// The machine's speed changes while the benchmark runs: on the shared
// 2-vCPU VM the benchmark was tuned on, a fixed loop ran 1.7-2x slower
// for stretches of 0.1 s to minutes as other tenants loaded the host, and
// the process's CPU time rose with it, so the time is not stolen but run
// slower. Runs of the same code on the same seed moved by up to 1.5x.
// The benchmark therefore samples a fixed reference kernel after each of
// the program's timed calls and scales every end-to-end time by
// refKernelTime over the median sample of the same run: a time is
// reported as it would read on a machine where the kernel takes
// refKernelTime. The kernel is part of the benchmark, not of the
// program, so a change to the program moves the scaled times as much as
// the measured ones.

// refKernelTime is the reference kernel's time on the reference machine:
// about its median sample on the 2-vCPU Xeon VM the benchmark was tuned
// on, at a time when other tenants left it fast.
const refKernelTime = 1500 * time.Microsecond

// kernelSize is the number of elements each part of the kernel touches.
const kernelSize = 1 << 13

// kernelState is the reference kernel's memory, allocated once so that
// the kernel neither allocates nor depends on the collector's pace.
var kernelState = func() *kernel {
	k := &kernel{
		next:  make([]uint32, kernelSize),
		keys:  make([]uint64, kernelSize),
		sort:  make([]uint64, kernelSize),
		table: make(map[uint32]uint64, kernelSize),
		buf:   make([]uint64, 1<<18),
	}
	x := uint64(88172645463325252)
	perm := make([]uint32, kernelSize)
	for i := range perm {
		perm[i] = uint32(i)
	}
	for i := range k.keys {
		x = xorshift(x)
		k.keys[i] = x
		k.table[uint32(i)] = x
		j := int(x % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	// next links every element into one cycle in random order.
	for i := range perm {
		k.next[perm[i]] = perm[(i+1)%len(perm)]
	}
	return k
}()

type kernel struct {
	next  []uint32
	keys  []uint64
	sort  []uint64
	table map[uint32]uint64
	buf   []uint64
	sink  uint64
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// refKernel runs the reference kernel, work shaped like the program's
// (pointer chasing, map updates, a sort, scattered writes over 2 MB),
// and returns its time.
func refKernel() time.Duration {
	k := kernelState
	t := time.Now()
	var sum uint64
	i := uint32(0)
	for range 4 * kernelSize {
		i = k.next[i]
		sum += k.keys[i]
	}
	for j := range uint32(kernelSize) {
		k.table[j] += sum ^ uint64(j)
	}
	copy(k.sort, k.keys)
	for j := range k.sort {
		k.sort[j] ^= sum
	}
	slices.Sort(k.sort)
	x := sum | 1
	for range 200000 {
		x = xorshift(x)
		k.buf[x&(1<<18-1)] += x
	}
	k.sink += x + k.sort[kernelSize/2] + k.table[uint32(sum%kernelSize)]
	return time.Since(t)
}

// kernelSample is the least of three runs of the kernel in a row. At
// GOMAXPROCS 1 a collection the program left running takes a quarter of
// the processor from whatever runs next; one of three runs mostly misses
// it.
func kernelSample() time.Duration {
	return min(refKernel(), refKernel(), refKernel())
}

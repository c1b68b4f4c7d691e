package main

import (
	"math/bits"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask (up to 1024 CPUs).
type cpuMask [16]uint64

func getAffinity() (m cpuMask, ok bool) {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

// setProcessAffinity applies m to every thread of this process; threads
// the runtime starts later inherit it from the thread that starts them.
func setProcessAffinity(m cpuMask) {
	ents, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, e := range ents {
		if tid, err := strconv.Atoi(e.Name()); err == nil {
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
		}
	}
}

// nthCPU returns a mask of only the n-th CPU (counting round) set in m.
func nthCPU(m cpuMask, n int) cpuMask {
	total := 0
	for _, w := range m {
		total += bits.OnesCount64(w)
	}
	if total == 0 {
		return m
	}
	n %= total
	var one cpuMask
	for i, w := range m {
		for ; w != 0; w &= w - 1 {
			if n == 0 {
				one[i] = w & -w
				return one
			}
			n--
		}
	}
	return m
}

// placeRank gives a rank's process the placement an HPC launcher gives it:
// one core of its own and one thread running Go code on it (GOMAXPROCS 1,
// all threads bound to the rank-th CPU this process may use). With the
// default — every process free to run its rank, socket reader and timer
// goroutines on every core — two rank processes on two cores keep four to
// six threads runnable, and the benchmark measures how the kernel
// schedules them: retransmission timers fire spuriously and the update
// rate halves and wanders by ±20 %. It returns the function that undoes
// the placement. Where affinity cannot be read (not Linux, or refused)
// only GOMAXPROCS is set.
func placeRank(rank int) (undo func()) {
	procs := runtime.GOMAXPROCS(1)
	all, ok := getAffinity()
	if ok {
		setProcessAffinity(nthCPU(all, rank))
	}
	return func() {
		if ok {
			setProcessAffinity(all)
		}
		runtime.GOMAXPROCS(procs)
	}
}

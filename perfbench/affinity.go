package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a sched_setaffinity mask of up to 1024 CPUs.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil, e
	}
	var cpus []int
	for c := 0; c < len(m)*64; c++ {
		if m.has(c) {
			cpus = append(cpus, c)
		}
	}
	return cpus, nil
}

// setThreadAffinity binds thread tid (0 = the calling thread) to cpu.
func setThreadAffinity(tid, cpu int) error {
	var m cpuMask
	m.set(cpu)
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return fmt.Errorf("sched_setaffinity(%d, cpu %d): %w", tid, cpu, e)
	}
	return nil
}

// pinSelf binds every thread of this process to cpu; threads created later
// inherit the binding from their creator.
func pinSelf(cpu int) error {
	tasks, err := filepath.Glob("/proc/self/task/*")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(filepath.Base(t))
		if err != nil {
			continue
		}
		if err := setThreadAffinity(tid, cpu); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// onCPU runs start on a thread bound to cpu, so a process it forks inherits
// that binding, then restores the thread's binding to restore.
func onCPU(cpu, restore int, start func() error) error {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setThreadAffinity(0, cpu); err != nil {
		return err
	}
	err := start()
	if rerr := setThreadAffinity(0, restore); err == nil {
		err = rerr
	}
	return err
}

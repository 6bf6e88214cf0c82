package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// clockTick is Linux's USER_HZ, the unit of utime/stime in /proc/<pid>/stat.
const clockTick = 100

// parseStatCPU returns utime+stime in seconds from the text of
// /proc/<pid>/stat. The comm field may contain spaces and parentheses, so
// fields are counted after the last ')'.
func parseStatCPU(data string) (float64, error) {
	i := strings.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no comm field")
	}
	f := strings.Fields(data[i+1:])
	// After comm: state(0) ppid pgrp session tty tpgid flags minflt cminflt
	// majflt cmajflt utime(11) stime(12).
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after comm, want at least 13", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return float64(ut+st) / clockTick, nil
}

// parseSchedstat returns the on-CPU time in seconds from the text of
// /proc/<pid>/task/<tid>/schedstat ("run_ns wait_ns timeslices").
func parseSchedstat(data string) (float64, error) {
	f := strings.Fields(data)
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat: empty")
	}
	ns, err := strconv.ParseUint(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat: %w", err)
	}
	return float64(ns) / 1e9, nil
}

// parseStatusKB returns the value in kB of one field ("VmRSS", "VmHWM") of
// /proc/<pid>/status text.
func parseStatusKB(data, field string) (float64, error) {
	for _, line := range strings.Split(data, "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || name != field {
			continue
		}
		f := strings.Fields(rest)
		if len(f) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, fmt.Errorf("status %s: %w", field, err)
		}
		return kb, nil
	}
	return 0, fmt.Errorf("status: no %s field", field)
}

// procCPU returns a process's user+system CPU seconds. It sums the
// nanosecond on-CPU times of the process's threads from schedstat, which
// resolves the few milliseconds a light phase costs; where schedstat is
// missing it falls back to the 10 ms ticks of /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err == nil && len(tasks) > 0 {
		var total float64
		ok := true
		for _, t := range tasks {
			data, err := os.ReadFile(t)
			if err != nil {
				ok = false
				break
			}
			s, err := parseSchedstat(string(data))
			if err != nil {
				ok = false
				break
			}
			total += s
		}
		if ok {
			return total, nil
		}
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(data))
}

// procStatusMB returns one /proc/<pid>/status memory field in MB.
func procStatusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(string(data), field)
	return kb / 1024, err
}

package main

import (
	"os"
	"runtime"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// comm holds spaces and a ')' — fields are counted after the last one.
	stat := "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 3079 0 0 0 250 75 0 0 20 0 9 0 12345 123456789 2000 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil || got != 3.25 {
		t.Fatalf("parseStatCPU = %v, %v; want 3.25", got, err)
	}
	if _, err := parseStatCPU("4242 (cmd) S 1 2"); err == nil {
		t.Error("short stat accepted")
	}
	if _, err := parseStatCPU("no comm here"); err == nil {
		t.Error("stat without comm accepted")
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("1500000000 2000 17\n")
	if err != nil || got != 1.5 {
		t.Fatalf("parseSchedstat = %v, %v; want 1.5", got, err)
	}
	if _, err := parseSchedstat(""); err == nil {
		t.Error("empty schedstat accepted")
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\tvantage\nVmPeak:\t  800000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   10240 kB\nThreads:\t9\n"
	rss, err := parseStatusKB(status, "VmRSS")
	if err != nil || rss != 10240 {
		t.Fatalf("VmRSS = %v, %v", rss, err)
	}
	hwm, err := parseStatusKB(status, "VmHWM")
	if err != nil || hwm != 20480 {
		t.Fatalf("VmHWM = %v, %v", hwm, err)
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("missing field accepted")
	}
}

func TestProcOfSelf(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc")
	}
	x := 0
	for i := 0; i < 20_000_000; i++ {
		x += i
	}
	_ = x
	cpu, err := procCPU(os.Getpid())
	if err != nil || cpu <= 0 {
		t.Fatalf("procCPU(self) = %v, %v", cpu, err)
	}
	rss, err := procStatusMB(os.Getpid(), "VmRSS")
	if err != nil || rss <= 0 {
		t.Fatalf("VmRSS(self) = %v, %v", rss, err)
	}
}

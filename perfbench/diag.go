package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow is the process's CPU time (user+sys over all threads).
func cpuNow() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPUTimeID = 2
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// cpuTimes is the aggregate "cpu" line of /proc/stat, in clock ticks.
type cpuTimes struct{ steal, total uint64 }

func readCPUTimes() cpuTimes {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil && err != io.EOF {
		return cpuTimes{}
	}
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal [guest guest_nice]
	for i, f := range fields[1:] {
		if i >= 8 {
			break // guest time is already inside user
		}
		v, _ := strconv.ParseUint(f, 10, 64)
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// diagnostics is the header every run prints, so a spread between runs
// can be traced to the host.
func diagnostics(w io.Writer, workload string, seed int64) {
	fmt.Fprintf(w, "# workload %s seed %d\n", workload, seed)
	fmt.Fprintf(w, "# go %s GOMAXPROCS %d nproc %d cpu %q\n", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

// rtStats is a reading of the Go runtime's counters.
type rtStats struct {
	gcCycles, mallocs, allocBytes uint64
	gcCPU, totalCPU               float64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtStats {
	metrics.Read(rtSamples)
	return rtStats{
		gcCycles:   rtSamples[0].Value.Uint64(),
		mallocs:    rtSamples[1].Value.Uint64(),
		allocBytes: rtSamples[2].Value.Uint64(),
		gcCPU:      rtSamples[3].Value.Float64(),
		totalCPU:   rtSamples[4].Value.Float64(),
	}
}

// liveHeapMB forces a collection and reports the live heap. The second
// collection empties sync.Pool victim caches: encoding/json pools its
// encode buffers, and a snapshot's buffer is garbage, not live data.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

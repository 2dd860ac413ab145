package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's jiffy rate as exposed through /proc (USER_HZ
// is 100 on every Linux ABI Go supports).
const userHZ = 100

// stealJiffies reads the aggregate steal column of /proc/stat: time the
// hypervisor ran someone else while this VM had runnable work. ok is
// false when the file or the column is missing (non-Linux, old kernel).
func stealJiffies() (jiffies uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	v, err := strconv.ParseUint(f[8], 10, 64)
	return v, err == nil
}

// hostSnap is one reading of every host-side gauge a pass is bracketed
// with.
type hostSnap struct {
	at      time.Time
	cpu     time.Duration // process user+sys
	steal   uint64
	stealOK bool
	mem     runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set (ru_maxrss is in KB on
// Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func snapHost() hostSnap {
	var s hostSnap
	runtime.ReadMemStats(&s.mem)
	s.steal, s.stealOK = stealJiffies()
	s.cpu = cpuTime()
	s.at = time.Now()
	return s
}

// hostDelta is what one bracketed interval cost on the host.
type hostDelta struct {
	WallS    float64 `json:"wall_s"`
	CPUS     float64 `json:"cpu_s"`
	AllocMB  float64 `json:"alloc_MB"`
	AllocsK  float64 `json:"allocs_k"`
	GCCycles float64 `json:"gc_cycles"`
	GCPauseM float64 `json:"gc_pause_ms"`
	// StealPct is steal jiffies ÷ (wall × cores), in percent; −1 when
	// /proc/stat gave no steal column.
	StealPct float64 `json:"steal_pct"`
}

func (a hostSnap) until(b hostSnap) hostDelta {
	d := hostDelta{
		WallS:    b.at.Sub(a.at).Seconds(),
		CPUS:     (b.cpu - a.cpu).Seconds(),
		AllocMB:  float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / (1 << 20),
		AllocsK:  float64(b.mem.Mallocs-a.mem.Mallocs) / 1000,
		GCCycles: float64(b.mem.NumGC - a.mem.NumGC),
		GCPauseM: float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
		StealPct: -1,
	}
	if a.stealOK && b.stealOK && d.WallS > 0 {
		d.StealPct = float64(b.steal-a.steal) / userHZ / (d.WallS * float64(runtime.NumCPU())) * 100
	}
	return d
}

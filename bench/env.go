package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// header records the environment a result was measured in.
type header struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Rounds     int     `json:"rounds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GOGC       string  `json:"gogc"`
	GODEBUG    string  `json:"godebug"`
	TmpDir     string  `json:"tmp_dir"`
	TmpFS      string  `json:"tmp_fs"`
	Flush      string  `json:"flush_policy"`
}

// childGODEBUG is pinned for every child: with the default (MADV_DONTNEED)
// the scavenger's page faults cost more sys time than the ops' own
// allocation does and widen the spread of op_ms.p50.
const childGODEBUG = "madvdontneed=0"

// flushPolicy is how the benchmark treats file durability.
const flushPolicy = "no fsync: recordings and spill directories stay in the page cache"

func newHeader(seed int64, seconds float64, workers int) header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	commit := os.Getenv("DDBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return header{
		Commit:     commit,
		Seed:       seed,
		Seconds:    seconds,
		Rounds:     rounds,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: workers,
		Workers:    workers,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		GOGC:       gogc,
		GODEBUG:    childGODEBUG,
		TmpDir:     tmpDir,
		TmpFS:      fsName(tmpDir),
		Flush:      flushPolicy,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsName names the filesystem holding dir by its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("statfs type %#x", uint32(st.Type))
}

// usage is the process's resource consumption at the start of the traced
// window; report turns the difference to now into the bench.* metrics.
type usage struct {
	cpuMs        float64
	steal, total uint64
}

func startUsage() usage {
	steal, total := procStat()
	cpu, _ := rusage()
	return usage{cpuMs: cpu, steal: steal, total: total}
}

func (u usage) report(res *roundResult) {
	cpu, rssMB := rusage()
	if res.Attempted > 0 {
		res.Layers["bench.cpu_ms_per_op"] = (cpu - u.cpuMs) / float64(res.Attempted)
	}
	res.Layers["bench.peak_rss_mb"] = rssMB
	if steal, total := procStat(); total > u.total {
		res.Layers["bench.steal_share"] = float64(steal-u.steal) / float64(total-u.total)
	}
}

// rusage returns the user plus system CPU time the process has used, in
// milliseconds, and its peak resident set in MB (Linux reports KiB).
func rusage() (cpuMs, peakRSSMB float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	ms := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e3 + float64(tv.Usec)/1e3 }
	return ms(ru.Utime) + ms(ru.Stime), float64(ru.Maxrss) / 1024
}

// procStat reads the machine-wide steal and total CPU ticks.
func procStat() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		n, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

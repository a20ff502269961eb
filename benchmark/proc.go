package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHZ is the kernel's clock-tick unit in /proc/<pid>/stat: 100 on
// every Linux ABI Go supports (it is a userspace constant, not CONFIG_HZ).
const userHZ = 100

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	pid, ppid int
	cpu       time.Duration // utime+stime plus those of reaped children
}

func readProcStat(pid int) (procStat, bool) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return procStat{}, false
	}
	// The command name is parenthesized and may hold spaces; the fixed
	// fields start after the last ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return procStat{}, false
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 15 {
		return procStat{}, false
	}
	ppid, _ := strconv.Atoi(f[1])
	var ticks int64
	for _, k := range []int{11, 12, 13, 14} { // utime stime cutime cstime
		v, _ := strconv.ParseInt(f[k], 10, 64)
		ticks += v
	}
	return procStat{pid: pid, ppid: ppid, cpu: time.Duration(ticks) * time.Second / userHZ}, true
}

func allProcs() []procStat {
	ents, _ := os.ReadDir("/proc")
	var out []procStat
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if ps, ok := readProcStat(pid); ok {
			out = append(out, ps)
		}
	}
	return out
}

// treeCPU is the user+system CPU time of this process (from getrusage,
// microsecond resolution) plus that of its live descendants (found by
// parent pid, 10 ms resolution).
func treeCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	total := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	procs := allProcs()
	inTree := map[int]bool{os.Getpid(): true}
	for grew := true; grew; {
		grew = false
		for _, p := range procs {
			if inTree[p.ppid] && !inTree[p.pid] {
				inTree[p.pid] = true
				total += p.cpu
				grew = true
			}
		}
	}
	return total
}

// processesRunning returns the pids of live processes whose executable
// is bin, whoever their parent now is: a leaked ppm-node is reparented
// to init, so a descendant scan would miss it.
func processesRunning(bin string) []int {
	var pids []int
	for _, p := range allProcs() {
		exe, err := os.Readlink(filepath.Join("/proc", strconv.Itoa(p.pid), "exe"))
		if err == nil && strings.TrimSuffix(exe, " (deleted)") == bin {
			pids = append(pids, p.pid)
		}
	}
	return pids
}

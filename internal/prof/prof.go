// Package prof arms the -cpuprofile / -memprofile outputs the commands
// share.
package prof

import (
	"log"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start arms the optional pprof outputs (an empty path disables one) and
// returns the function that finalizes them: it stops the CPU profile and
// snapshots the heap.
func Start(cpu, mem string) func() {
	var stopCPU func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	return func() {
		if stopCPU != nil {
			stopCPU()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			f.Close()
		}
	}
}

// Package prof is the -cpuprofile flag of the command-line tools.
package prof

import (
	"os"
	"runtime/pprof"
)

// StartCPU begins a CPU profile written to path and returns the
// function that ends it.
func StartCPU(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		_ = f.Close() // the profile error is the one to report
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// Package benchkit holds the two helpers the benchmark module under bench/
// imports by name: the build-environment record written into every report,
// and StressDFG.
package benchkit

import (
	"runtime"

	"chop/internal/dfg"
	"chop/internal/obs"
)

// BuildEnv records the build and hardware environment a benchmark report
// was measured on: wall times from different machines or toolchains do not
// compare.
type BuildEnv struct {
	GoVersion  string `json:"go_version"`
	Revision   string `json:"revision,omitempty"`
	Dirty      bool   `json:"dirty,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// ReadBuildEnv captures the current process's build environment.
func ReadBuildEnv() *BuildEnv {
	bi := obs.ReadBuildInfo()
	return &BuildEnv{
		GoVersion:  bi.GoVersion,
		Revision:   bi.Revision,
		Dirty:      bi.Dirty,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// StressDFG is dfg.Stress. It stays here only because the benchmark module
// under bench/ calls it by this name.
func StressDFG(levels, width, bits int) *dfg.Graph { return dfg.Stress(levels, width, bits) }

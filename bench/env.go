package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// env records where a result was measured, so two result files are only
// compared knowingly across machines or toolchains.
type env struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	LoadAvg1   float64 `json:"load_avg_1m"`
}

func recordEnv() env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), LoadAvg1: -1}
	// The acceptance driver's checkout is not a git repository; the
	// commit is then simply unknown.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			if v, err := strconv.ParseFloat(f[0], 64); err == nil {
				e.LoadAvg1 = v
			}
		}
	}
	return e
}

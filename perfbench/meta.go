package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// metadata describes the machine and build a result came from, so
// numbers from different machines are never compared silently.
func metadata(seed int64) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"gogc":       gcPercent(),
		"gomemlimit": debug.SetMemoryLimit(-1),
		"cpu":        cpuModel(),
		"seed":       seed,
		"commit":     commit(),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// commit resolves .git/HEAD in the working directory; a checkout
// without git metadata reports "unknown".
func commit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref)))
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(id))
}

// gcPercent reads the collector's GOGC setting.
func gcPercent() int {
	p := debug.SetGCPercent(100)
	debug.SetGCPercent(p)
	return p
}

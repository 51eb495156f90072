package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// environment stamps a record with where it was measured. Numbers from a
// 2-core shared sandbox writing to an overlay filesystem are that
// sandbox's, not a device's.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	DataDirFS  string `json:"data_dir_fs"`
}

func stampEnvironment(dataDir string) environment {
	return environment{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		DataDirFS:  fsType(dataDir),
	}
}

// commit is the VCS revision the go tool stamped into the binary. A
// checkout that is not a repository (the driver's) has none.
func commit() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
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

// fsType names the filesystem holding dir, from the mount table's longest
// matching mount point, with the statfs magic as a fallback.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, bestLen := "", -1
	if f, err := os.Open("/proc/self/mounts"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 {
				continue
			}
			mp := fields[1]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
				best, bestLen = fields[2], len(mp)
			}
		}
	}
	if best != "" {
		return best
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	return "statfs:0x" + strconv.FormatUint(uint64(st.Type), 16)
}

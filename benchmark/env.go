package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is what every run records about where it ran, so numbers from
// different machines or toolchains are never compared by accident.
type environment struct {
	Commit     string `json:"commit"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	JournalFS  string `json:"journal_fs"`
	Seed       int64  `json:"seed"`
}

func readEnvironment(journalDir string, seed int64) environment {
	env := environment{
		Commit:     "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     "unknown",
		JournalFS:  fsType(journalDir),
		Seed:       seed,
	}
	// The driver's checkout is not a git repository; the commit is then
	// whatever the caller recorded next to the numbers.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		env.Kernel = string(b)
	}
	return env
}

// fsType names the filesystem holding dir from its statfs magic; the fsync
// cost in write_p50_ms means nothing without it.
func fsType(dir string) string {
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
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

type host struct {
	cores, gomaxprocs int
	goVersion         string
	commit            string
	sourceDigest      string
}

func hostInfo() host {
	return host{
		cores:        runtime.NumCPU(),
		gomaxprocs:   runtime.GOMAXPROCS(0),
		goVersion:    runtime.Version(),
		commit:       commit(),
		sourceDigest: sourceDigest("."),
	}
}

// commit is the VCS revision stamped into the binary, or "unknown"
// when it was built outside a git checkout (sourceDigest then tells
// builds apart).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceDigest identifies the measured source when no commit is
// known: a SHA-256 over the path and content of every Go, MiniJava
// and go.mod file under root, hidden and build directories excluded.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".mj") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

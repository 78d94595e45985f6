package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one measured value with its unit, its sample count and, for
// percentiles, which one it is.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Note  string  `json:"note,omitempty"`
}

type metrics map[string]metric

// set records a metric. A value that is not finite (a ratio over an empty
// sample) is left out: the catalog check then reports it as not measured,
// and the result stays valid JSON.
func (m metrics) set(name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	m[name] = metric{Value: v, Unit: unit, N: n, Note: note}
}

// result is what one workload's child process reports.
type result struct {
	Workload  string  `json:"workload"`
	Stamp     stamp   `json:"stamp"`
	Seconds   int     `json:"seconds"`
	Traced    bool    `json:"traced"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Digest    string  `json:"digest"`
	Metrics   metrics `json:"metrics"`
	// Problems lists every correctness gate that failed; a result is
	// correct when it is empty.
	Problems []string `json:"problems,omitempty"`
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// stamp identifies the machine and the code a result was measured on.
// Results compare only when their machine fields agree.
type stamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func (s stamp) machine() string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q %s", s.GOMAXPROCS, s.NProc, s.CPU, s.GoVersion)
}

func newStamp(root string, seed int64) stamp {
	return stamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), CPU: cpuModel(),
		GoVersion: runtime.Version(), Commit: commitOf(root), Seed: seed,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commitOf names the measured code: the git commit when root is a
// repository, else a hash of every Go source and module file under root,
// which identifies a plain checkout just as well.
func commitOf(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	h := sha256.New()
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries just drop out of the hash
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, p := range files {
		if data, err := os.ReadFile(p); err == nil {
			rel, _ := filepath.Rel(root, p)
			fmt.Fprintf(h, "%s %d\n", rel, len(data))
			h.Write(data)
		}
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// digest is an FNV-1a 64 accumulator over simulated outputs; floats enter
// by their exact bits, so equal digests mean byte-identical results.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) f64(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d *digest) ints(vs ...int) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) bytes(p []byte) { d.h.Write(p) }

func (d *digest) String() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// readLastLine returns the last non-empty line of r.
func readLastLine(r io.Reader) (string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	last := ""
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last, sc.Err()
}

package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"mmtag/internal/eval"
)

// env is what every workload needs to know about where it runs.
type env struct {
	repo string // checkout root: the program's sources
	bin  string // built mmtag-serve, mmtag-router and mmtag-bench
	out  string // scratch space inside the checkout
	seed int64
	log  io.Writer
}

// The output checks compare against serial runs (Pool: nil) of the same
// sources. Those runs are slow, so a child process computes each once
// and stores it under out/ref, keyed by a hash of the sources: a later
// run of the same checkout reuses it, an edited checkout cannot.

// sourceHash fingerprints every file the program is built from.
func sourceHash(repo string) (string, error) {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(repo, root), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(repo, path) // path is under repo by construction
			fmt.Fprintf(h, "%s %d\n", rel, len(b))
			h.Write(b)
			return nil
		})
		if err != nil {
			return "", fmt.Errorf("hash sources: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// refPath is where the reference named kind is cached.
func (e *env) refPath(kind string) (string, error) {
	hash, err := sourceHash(e.repo)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(e.out, "ref")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return filepath.Join(dir, kind+"-"+hash+".json"), nil
}

// reference is one cached serial result.
type reference struct {
	Digest string `json:"digest"`
}

// epochReference is the serial state digest after one warm-up Step
// plus epochWindow Steps.
func (e *env) epochReference() (string, error) { return e.reference("epoch") }

// suiteReference is the serial suite's tables digest.
func (e *env) suiteReference() (string, error) { return e.reference("suite") }

// reference reads the cached serial result kind, computing it in a
// child process on a miss.
func (e *env) reference(kind string) (string, error) {
	path, err := e.refPath(kind)
	if err != nil {
		return "", err
	}
	var ref reference
	if err := readJSON(path, &ref); err == nil && ref.Digest != "" {
		return ref.Digest, nil
	}
	fmt.Fprintf(e.log, "computing the serial %s reference\n", kind)
	if err := e.child("-ref", kind, "-ref-out", path); err != nil {
		return "", err
	}
	if err := readJSON(path, &ref); err != nil {
		return "", err
	}
	return ref.Digest, nil
}

// child reruns this binary with args, output to the log.
func (e *env) child(args ...string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = e.log, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	return nil
}

// buildReference runs a serial reference (Pool: nil) in this child
// process and writes it to path.
func buildReference(kind, path string) error {
	var ref reference
	switch kind {
	case "epoch":
		d, r, err := newEpochRunner(epochConfig(nil))
		if err != nil {
			return err
		}
		for i := 0; i < 1+epochWindow; i++ {
			if err := r.Step(); err != nil {
				return err
			}
		}
		if ref.Digest, err = stateDigest(r.Snapshot(), d.TagStates()); err != nil {
			return err
		}
	case "suite":
		tabs, err := eval.RunSuite(eval.Exec{}, eval.DefaultTestbed(), suiteSeed)
		if err != nil {
			return err
		}
		ref.Digest = tablesDigest(tabs)
	default:
		return fmt.Errorf("unknown reference %q", kind)
	}
	return writeJSONAtomic(path, ref)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// writeJSONAtomic writes v to path through a rename, so a reader never
// sees half a file.
func writeJSONAtomic(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

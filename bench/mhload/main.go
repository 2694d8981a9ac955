// Command mhload is the repository benchmark: a single-process,
// closed-loop load generator for cmd/mhserve. It builds the server from
// the tree, prepares a seeded persisted corpus with a write-ahead-log
// tail, launches the server on loopback, drives one workload over HTTP,
// checks every answer, and prints every end-to-end metric by name and
// unit. With -trace 1 it also replays the same requests in-process
// through the layers' public functions with a span around each call and
// prints the per-layer metrics instead. See bench/README.md.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	mhload [-workload all|paper-read|adhoc-small|fanout-scan|annotate-mixed]
//	       [-seed N] [-seconds S] [-trace 0|1] [-out runs.jsonl]
//	mhload -compare parent.jsonl change.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is non-zero
// when any answer was wrong or any request failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(mhload()) }

func mhload() int {
	only := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "seed of the corpus and the request lists")
	seconds := flag.Float64("seconds", 15, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 = also replay in-process with spans and report the per-layer metrics")
	spans := flag.String("spans", "", "span file of -trace 1 (default <work>/spans-<workload>.jsonl)")
	root := flag.String("root", ".", "repository root; cmd/mhserve is built from it")
	work := flag.String("work", "", "directory for the server binary and scratch files (default <root>/.bench_build)")
	out := flag.String("out", "", "append each run's record (metrics and _meta) to this JSON-lines file")
	compare := flag.Bool("compare", false, "compare two -out files against the bounds in <root>/BENCHMARK.json: mhload -compare parent.jsonl change.jsonl")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: mhload -compare parent.jsonl change.jsonl")
			return 2
		}
		return runCompare(filepath.Join(*root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	var wls []workload
	if *only == "all" {
		wls = workloads
	} else if wl, ok := workloadByName(*only); ok {
		wls = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "mhload: unknown workload %q\n", *only)
		return 2
	}
	if *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "mhload: need -trace 0|1 and a positive -seconds")
		return 2
	}
	cfg := config{
		root: *root, work: *work, seed: *seed, seconds: *seconds, trace: *trace == 1,
		launches: 9, warmup: 2 * time.Second,
	}
	if cfg.work == "" {
		cfg.work = filepath.Join(cfg.root, ".bench_build")
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mhload:", err)
		return 1
	}
	var err error
	if cfg.bin, err = buildServer(cfg.root, cfg.work); err != nil {
		fmt.Fprintln(os.Stderr, "mhload:", err)
		return 1
	}
	status := 0
	for _, wl := range wls {
		cfg.spans = *spans
		if cfg.spans == "" {
			cfg.spans = filepath.Join(cfg.work, "spans-"+wl.name+".jsonl")
		}
		res, err := runWorkload(cfg, wl)
		if err == nil {
			err = finite(res.Metrics)
		}
		if err == nil && *out != "" {
			err = appendRecord(*out, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "mhload: %s: %v\n", wl.name, err)
			return 1
		}
		report(os.Stdout, res)
		if !res.Correct {
			status = 1
		}
	}
	return status
}

// report prints a readable table, the _meta line, and last the result
// object the benchmark contract defines.
func report(w io.Writer, res *result) {
	fmt.Fprintf(w, "== %s seed=%d trace=%t\n", res.Workload, res.Seed, res.Trace)
	samples, _ := res.Meta["samples"].(map[string]int)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		line := fmt.Sprintf("%-34s %14.6g %s", name, m.Value, m.Unit)
		if n, ok := samples[name]; ok && !res.Trace {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "attempted=%d failed=%d error_rate=%g\n", res.Attempted, res.Failed, res.Meta["error_rate"])
	meta, _ := json.Marshal(map[string]any{"_meta": res.Meta})
	fmt.Fprintln(w, string(meta))
	final, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintln(w, string(final))
}

// finite rejects metrics that could not be measured.
func finite(ms map[string]metric) error {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured", name)
		}
	}
	return nil
}

func appendRecord(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel is the first "model name" of /proc/cpuinfo.
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

// gitHead resolves the checkout's HEAD commit from .git without running
// git; "unknown" outside a git checkout.
func gitHead(root string) string {
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// config holds one invocation's settings.
type config struct {
	root, work string
	bin        string // built mhserve
	seed       uint64
	seconds    float64
	trace      bool
	spans      string
	// launches is the number of server starts per run; one of them
	// serves the load.
	launches int
	// requests > 0 ends the measured window after that many requests
	// instead of seconds (smoke runs).
	requests int
	warmup   time.Duration // closed-loop warm-up after every distinct read ran once
	// corrupt, set only by tests, replaces the expected answer of the
	// first cold query, which must then be counted as a failure.
	corrupt bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload run: the contract's four keys plus the
// record kept by -out.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Meta      map[string]any    `json:"_meta"`
}

// run is one workload run in progress.
type run struct {
	cfg          config
	b            *builder
	docs         []docInfo
	cold         []int32 // the cold query on each document
	probeUpdates []int32 // traced set-up probes
	probeFanout  int32
	prepDir      string
	clients      int
	t            tally
}

// httpRun is what the HTTP phase measured, kept for the per-layer
// metrics of a traced run.
type httpRun struct {
	measured      int           // requests in the measured window
	elapsed       time.Duration // length of the measured window
	readP50ms     float64
	before, after map[string]float64 // /metrics around the measured window
	cpuFrac       float64
	diskMB        float64
}

// runWorkload prepares the seeded corpus, launches the server
// cfg.launches times (timing set-up and the cold query), drives the
// workload against one of the launches and, with cfg.trace, replays the
// same requests in-process for the per-layer breakdown.
func runWorkload(cfg config, wl workload) (*result, error) {
	runDir, err := os.MkdirTemp(cfg.work, "run-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	r := &run{cfg: cfg, b: newBuilder(), prepDir: filepath.Join(runDir, "prep"), clients: min(wl.clients, runtime.NumCPU())}

	prepStart := time.Now()
	docs, coll, err := prepare(r.prepDir, cfg.seed)
	if err != nil {
		return nil, err
	}
	r.docs = docs
	rng := rand.New(rand.NewPCG(cfg.seed, 1))
	wl.gen(rng, r.b, docs)
	r.cold = r.b.coldOps(docs)
	r.probeUpdates, r.probeFanout = r.b.probeOps(rng, docs)
	err = expectAll(coll, r.b.ops, docs)
	if cerr := coll.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if cfg.corrupt {
		bad := "corrupted expectation"
		r.b.ops[r.cold[0]].want.rows[0].Result = &bad
	}
	prepSeconds := time.Since(prepStart).Seconds()
	runtime.GC() // keep the generator's own collector out of the timed phases

	client := newClient(r.clients)
	ops := r.b.ops
	var (
		setups  []float64
		coldLat []time.Duration
	)
	// launchTimed starts the l-th server on a fresh copy of the prepared
	// directory, records its set-up time and its cold queries, and
	// leaves it running.
	launchTimed := func(l int) (*server, string, error) {
		dir := filepath.Join(runDir, fmt.Sprintf("launch%d", l))
		if err := copyDir(r.prepDir, dir); err != nil {
			return nil, "", err
		}
		s, setup, err := launch(cfg.bin, dir, filepath.Join(runDir, fmt.Sprintf("server%d.log", l)), client)
		if err != nil {
			return nil, "", err
		}
		setups = append(setups, setup.Seconds())
		samples, _ := closedLoop(1, ops, r.cold, untilCount(int64(len(r.cold))), httpDo(client, s.base))
		r.t.add(samples)
		coldLat = append(coldLat, sampleLats(samples)...)
		return s, dir, nil
	}
	launchKilled := func(from, to int) error {
		for l := from; l < to; l++ {
			s, dir, err := launchTimed(l)
			if err != nil {
				return err
			}
			s.stop()
			os.RemoveAll(dir)
		}
		return nil
	}
	// Half the launches that do not serve the load run before it and half
	// after it, so the set-up and cold-query samples span the whole run:
	// this machine's speed drifts within seconds.
	before := (cfg.launches - 1) / 2
	if err := launchKilled(0, before); err != nil {
		return nil, err
	}
	srv, srvDir, err := launchTimed(before)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	do := httpDo(client, srv.base)

	// Warm-up, not measured: every distinct read once, then the closed
	// loop itself for cfg.warmup.
	distinct := r.b.distinctReads()
	warm, _ := closedLoop(r.clients, ops, distinct, untilCount(int64(len(distinct))), do)
	r.t.add(warm)
	warmed := len(warm)
	if cfg.warmup > 0 {
		warm, _ = closedLoop(r.clients, ops, r.b.list, untilTime(time.Now().Add(cfg.warmup)), do)
		r.t.add(warm)
		warmed += len(warm)
	}

	var h httpRun
	if h.before, err = srv.scrape(); err != nil {
		return nil, err
	}
	stop := untilTime(time.Now().Add(time.Duration(cfg.seconds * float64(time.Second))))
	if cfg.requests > 0 {
		stop = untilCount(int64(cfg.requests))
	}
	cpu0 := cpuTime()
	rssStop := make(chan struct{})
	rssMedian := srv.sampleRSS(rssStop)
	samples, elapsed := closedLoop(r.clients, ops, r.b.list, stop, do)
	close(rssStop)
	rssMed := <-rssMedian
	h.cpuFrac = (cpuTime() - cpu0).Seconds() / (elapsed.Seconds() * float64(runtime.NumCPU()))
	if h.after, err = srv.scrape(); err != nil {
		return nil, err
	}
	r.t.add(samples)
	h.measured, h.elapsed = len(samples), elapsed
	peak, err := srv.rssMB("VmHWM:")
	if err != nil {
		return nil, err
	}
	srv.stop()
	h.diskMB = float64(dirBytes(srvDir)) / (1 << 20)
	if err := launchKilled(before+1, cfg.launches); err != nil {
		return nil, err
	}

	reads, updates := latencies(ops, samples)
	readMs, updMs, coldMs := millis(reads), millis(updates), millis(coldLat)
	h.readP50ms = percentile(readMs, 0.5)

	res := &result{
		Workload: wl.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"cold_query_ms":  {percentile(coldMs, 0.5), "ms"},
			"throughput_rps": {medianRate(samples, elapsed), "req/s"},
			"read_p50_ms":    {h.readP50ms, "ms"},
			"read_p99_ms":    {percentile(readMs, 0.99), "ms"},
			"rss_mb":         {rssMed, "MB"},
		},
		Meta: map[string]any{
			"nproc":                runtime.NumCPU(),
			"gomaxprocs_generator": runtime.GOMAXPROCS(0),
			"gomaxprocs_server":    serverGOMAXPROCS(),
			"go_version":           runtime.Version(),
			"cpu_model":            cpuModel(),
			"git_head":             gitHead(cfg.root),
			"seed":                 cfg.seed,
			"clients":              r.clients,
			"launches":             cfg.launches,
			"measured_seconds":     elapsed.Seconds(),
			"prep_seconds":         prepSeconds,
			"distinct_requests":    len(ops),
			"requests":             map[string]int{"cold": len(coldLat), "warmup": warmed, "measured": len(samples)},
			"samples": map[string]int{
				"setup_s": len(setups), "cold_query_ms": len(coldMs),
				"read_p50_ms": len(readMs), "read_p99_ms": len(readMs),
				"update_p50_ms": len(updMs), "update_p99_ms": len(updMs),
			},
			"client_cpu_frac": h.cpuFrac,
			"rss_peak_mb":     peak,
		},
	}
	if len(updMs) > 0 {
		res.Meta["update_p50_ms"] = percentile(updMs, 0.5)
		res.Meta["update_p99_ms"] = percentile(updMs, 0.99)
	}
	if cfg.trace {
		if res.Metrics, err = r.tracePhase(&h); err != nil {
			return nil, err
		}
	}
	res.Attempted, res.Failed = r.t.attempted, r.t.failed
	res.Correct = r.t.failed == 0
	res.Meta["error_rate"] = ratio(float64(r.t.failed), float64(r.t.attempted))
	return res, nil
}

func httpDo(client *http.Client, base string) doFunc {
	return func(_ int, _ int64, o *op) ([]byte, error) { return send(context.Background(), client, base, o) }
}

// cpuTime is the generator's own user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// serverGOMAXPROCS is the GOMAXPROCS the server starts with: the
// inherited environment's, else the Go default (the CPU count).
func serverGOMAXPROCS() int {
	if n, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && n > 0 {
		return n
	}
	return runtime.NumCPU()
}

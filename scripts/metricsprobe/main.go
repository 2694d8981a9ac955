// Command metricsprobe drives a fixed query burst against a small
// collection and prints one JSON object of engine-health numbers —
// the compile cache hit rate and structural name-index build counts —
// read from the collection's metrics registry. scripts/bench.sh merges
// the object into BENCH_eval.json (under "_metrics") so cache
// effectiveness is tracked in git next to the latency numbers: a cache
// regression shows up as a hit-rate drop even when ns/op stays flat.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mhxquery"
	"mhxquery/internal/corpus"
)

// The burst mirrors how the caches are exercised in production: a
// fixed set of queries fanned out repeatedly, so the first round
// misses and every later round hits.
const rounds = 8

var queries = []string{
	`count(/descendant::w)`,
	`for $w in /descendant::w[overlapping::line] return string($w)`,
	`//w[@rend]`,
	`for $l in /descendant::line return count($l/xdescendant::w)`,
}

func main() {
	coll := mhxquery.NewCollection(mhxquery.CollectionOptions{Workers: 4})
	xml := corpus.BoethiusXML()
	names := make([]string, 0, len(xml))
	for name := range xml {
		names = append(names, name)
	}
	sort.Strings(names)
	// Four copies of the fixture so the fan-out pool has real work.
	for i := 0; i < 4; i++ {
		var hs []mhxquery.Hierarchy
		for _, name := range names {
			hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
		}
		doc, err := mhxquery.Parse(hs...)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := coll.Put(fmt.Sprintf("boethius%d", i), doc); err != nil {
			log.Fatal(err)
		}
	}

	for r := 0; r < rounds; r++ {
		for _, q := range queries {
			if _, err := coll.QueryAll(q); err != nil {
				log.Fatalf("%s: %v", q, err)
			}
		}
	}

	snap := coll.Metrics().Snapshot()
	rate := func(cache string) float64 {
		hit := snap[`mhx_cache_requests_total{cache="`+cache+`",result="hit"}`]
		miss := snap[`mhx_cache_requests_total{cache="`+cache+`",result="miss"}`]
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	out := map[string]any{
		"compile_cache_hit_rate": rate("compile"),
		"nameindex_builds":       snap["mhx_nameindex_builds_total"],
		"queries_evaluated":      snap["mhx_query_seconds_count"],
	}
	for k, v := range walProbe() {
		out[k] = v
	}
	if rss, ok := rssBytes(); ok {
		out["rss_bytes"] = rss
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(out); err != nil {
		log.Fatal(err)
	}
}

// walProbe drives a concurrent durable-update burst through a
// throwaway on-disk collection and reports the write-ahead-log health
// numbers: group-commit fsync p99, commits amortized per fsync, and —
// after closing and reopening the collection — the recovery replay
// rate and torn-tail truncation count, so durability regressions
// (fsync latency creep, group commit falling apart, slow replay) are
// diffable in git alongside the cache numbers.
func walProbe() map[string]any {
	dir, err := os.MkdirTemp("", "metricsprobe")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// Snapshots disabled so every update stays in the log and the
	// reopen below replays the whole burst.
	opts := mhxquery.CollectionOptions{
		FlushWindow:   500 * time.Microsecond,
		SnapshotEvery: -1,
		SnapshotBytes: -1,
	}
	coll, err := mhxquery.OpenCollection(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	xml := corpus.BoethiusXML()
	const writers = 4
	for i := 0; i < writers; i++ {
		var hs []mhxquery.Hierarchy
		for _, name := range corpus.BoethiusHierarchies() {
			hs = append(hs, mhxquery.Hierarchy{Name: name, XML: xml[name]})
		}
		doc, err := mhxquery.Parse(hs...)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := coll.Put(fmt.Sprintf("boethius%d", i), doc); err != nil {
			log.Fatal(err)
		}
	}
	// Concurrent writers give group commit batches to amortize.
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("boethius%d", i)
			for j := 0; j < 16; j++ {
				if _, _, err := coll.Update(name, `rename node (//w)[1] as "w"`); err != nil {
					log.Fatalf("%s: %v", name, err)
				}
			}
		}(i)
	}
	wg.Wait()

	snap := coll.Metrics().Snapshot()
	p99, _ := coll.Metrics().Quantile("mhx_wal_fsync_seconds", 0.99)
	commitsPerFsync := 0.0
	if snap["mhx_wal_syncs_total"] > 0 {
		commitsPerFsync = snap["mhx_wal_appends_total"] / snap["mhx_wal_syncs_total"]
	}
	if err := coll.Close(); err != nil {
		log.Fatal(err)
	}

	reopened, err := mhxquery.OpenCollection(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer reopened.Close()
	rec := reopened.Recovery()
	replayRate := 0.0
	if rec.Elapsed > 0 {
		replayRate = float64(rec.Replayed) / rec.Elapsed.Seconds()
	}
	return map[string]any{
		"wal_fsync_p99_seconds":      p99,
		"wal_commits_per_fsync":      commitsPerFsync,
		"wal_replay_records_per_sec": replayRate,
		"wal_replayed_records":       rec.Replayed,
		"wal_torn_tail_bytes":        rec.TornTailBytes,
	}
}

// rssBytes reads the process's resident set size from /proc (Linux
// only; ok=false elsewhere). Recorded next to the latency numbers so
// the memory cost of the query burst — and of the in-memory snapshot
// images it serves from — is diffable in git.
func rssBytes() (int64, bool) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(status), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb * 1024, true
	}
	return 0, false
}

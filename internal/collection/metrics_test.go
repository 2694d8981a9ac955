package collection

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestMetricsCatalog checks that ordinary collection traffic populates
// every metric family the README catalogs, and that the Prometheus
// encoding of the registry carries them.
func TestMetricsCatalog(t *testing.T) {
	c := New(Options{Workers: 4})
	for i := 0; i < 4; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%d", i), genDoc(t, uint64(i+1), 40)); err != nil {
			t.Fatal(err)
		}
	}
	// Same query twice: first a compile miss, then hits.
	for i := 0; i < 2; i++ {
		if _, err := c.QueryAll(`count(//w)`, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.Update("doc0", `delete node (//w)[1]`); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.ExplainAnalyzeDoc(context.Background(), "doc1", `//w`); err != nil {
		t.Fatal(err)
	}

	snap := c.Metrics().Snapshot()
	if snap["mhx_query_seconds_count"] < 9 { // 2 fan-outs x 4 docs + 1 analyze
		t.Errorf("query histogram count = %v, want >= 9", snap["mhx_query_seconds_count"])
	}
	if snap["mhx_update_commit_seconds_count"] != 1 {
		t.Errorf("update histogram count = %v, want 1", snap["mhx_update_commit_seconds_count"])
	}
	if snap[`mhx_cache_requests_total{cache="compile",result="hit"}`] < 1 ||
		snap[`mhx_cache_requests_total{cache="compile",result="miss"}`] < 1 {
		t.Errorf("compile cache counters not populated: %v", snap)
	}
	for series := range snap {
		if strings.Contains(series, `cache="plan"`) {
			t.Errorf("series %s: a query has one plan, so there is no plan cache to count", series)
		}
	}
	if snap["mhx_documents"] != 4 {
		t.Errorf("mhx_documents = %v, want 4", snap["mhx_documents"])
	}
	if snap["mhx_nameindex_builds_total"] < 1 {
		t.Errorf("name-index build counter = %v, want >= 1", snap["mhx_nameindex_builds_total"])
	}
	// Gauges return to zero once the fan-out completes.
	if snap["mhx_fanout_queue_depth"] != 0 || snap["mhx_fanout_busy_workers"] != 0 {
		t.Errorf("fan-out gauges nonzero at rest: %v", snap)
	}

	var sb strings.Builder
	if err := c.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, family := range []string{
		"mhx_query_seconds", "mhx_update_commit_seconds", "mhx_cache_requests_total",
		"mhx_fanout_queue_depth", "mhx_fanout_busy_workers", "mhx_documents",
		"mhx_nameindex_builds_total", "mhx_nameindex_build_seconds_total",
		"mhx_index_maintenance_total", "mhx_overlays_total", "mhx_overlay_leaf_builds_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("scrape missing family %s", family)
		}
	}
	// Cache stats agree between the legacy accessors and the registry.
	cs := c.CacheStats()
	if float64(cs.Hits) != snap[`mhx_cache_requests_total{cache="compile",result="hit"}`] {
		t.Errorf("compile hits diverge: CacheStats %d vs registry %v", cs.Hits,
			snap[`mhx_cache_requests_total{cache="compile",result="hit"}`])
	}
}

// TestMetricsRace hammers the registry from concurrent fan-outs,
// updates and scrapes; under -race this is the proof the observability
// layer adds no data races to the query paths.
func TestMetricsRace(t *testing.T) {
	c := New(Options{Workers: 4})
	for i := 0; i < 3; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%d", i), genDoc(t, uint64(i+7), 24)); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := c.QueryAll(fmt.Sprintf(`count(//w[%d >= 0])`, g), ""); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, _, err := c.Update("doc0", `delete node (//w)[1]`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds*4; i++ {
			var sb strings.Builder
			if err := c.Metrics().WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	snap := c.Metrics().Snapshot()
	if got := snap["mhx_query_seconds_count"]; got < 3*rounds*3 {
		t.Errorf("query count = %v, want >= %d", got, 3*rounds*3)
	}
	if got := snap["mhx_update_commit_seconds_count"]; got != rounds {
		t.Errorf("update count = %v, want %d", got, rounds)
	}
}

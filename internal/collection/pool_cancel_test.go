package collection

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"mhxquery/internal/xquery"
)

// TestFanoutCancelReleasesPool runs collection fan-outs under an
// already-canceled context beside ordinary concurrent QueryAlls on the
// shared scheduler: every canceled row must fail with MHXQ0002, the
// ordinary fan-outs must still answer, and once everything has returned
// the fan-out and pool gauges must all read zero — a canceled fan-out
// leaves no job accounted, no worker busy and no ticket queued.
func TestFanoutCancelReleasesPool(t *testing.T) {
	c := New(Options{Workers: 4})
	const docs = 6
	for i := 0; i < docs; i++ {
		if _, err := c.Put(fmt.Sprintf("doc%d", i), genDoc(t, uint64(i+1), 120)); err != nil {
			t.Fatal(err)
		}
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// A runaway count: it can only end by observing the cancellation.
	const runaway = `count(1 to 100000000000)`

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rows, err := c.QueryAll(`//w[string-length(string(.)) > 0]`, "")
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range rows {
					if r.Err != nil || len(r.Seq) == 0 {
						t.Errorf("ordinary fan-out row %s: %d items, err=%v", r.Name, len(r.Seq), r.Err)
						return
					}
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(limit int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				rows, err := c.QueryAllLimit(canceled, runaway, "", limit)
				if err != nil {
					t.Error(err)
					return
				}
				if len(rows) != docs {
					t.Errorf("canceled fan-out returned %d rows, want %d", len(rows), docs)
				}
				for _, r := range rows {
					xe, ok := r.Err.(*xquery.Error)
					if !ok || xe.Code != "MHXQ0002" {
						t.Errorf("canceled row %s (limit %d): err=%v, want MHXQ0002", r.Name, limit, r.Err)
						return
					}
				}
			}
		}(g * 3) // limit 0 evaluates strictly, limit 3 through a capped stream
	}
	wg.Wait()

	// Pool workers decrement their busy count just after the loop they
	// helped completes, so give the gauges a moment to settle.
	gauges := []string{"mhx_fanout_queue_depth", "mhx_fanout_busy_workers",
		"mhx_pool_busy_workers", "mhx_pool_queued_jobs"}
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := c.Metrics().Snapshot()
		nonzero := map[string]float64{}
		for _, g := range gauges {
			v, ok := snap[g]
			if !ok {
				t.Fatalf("registry lacks %s", g)
			}
			if v != 0 {
				nonzero[g] = v
			}
		}
		if len(nonzero) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges nonzero at rest: %v", nonzero)
		}
		time.Sleep(time.Millisecond)
	}
}

package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request.
type sample struct {
	op  int32
	lat time.Duration
	end time.Duration // completion, since the loop started
	ok  bool
}

// doFunc performs request o for client c as the seq-th request of the
// loop and returns the response body.
type doFunc func(c int, seq int64, o *op) ([]byte, error)

// closedLoop runs one closed loop per client: each client takes the next
// request from list through one shared index (wrapping around) and
// sends the next only after the previous one is answered, until stop
// reports true for the index it drew. Latency covers do alone; the
// answer is checked afterwards, outside the timed region. The first
// failure is reported on stderr.
func closedLoop(clients int, ops []op, list []int32, stop func(i int64) bool, do doFunc) ([]sample, time.Duration) {
	var (
		next   atomic.Int64
		failed sync.Once
		wg     sync.WaitGroup
	)
	per := make([][]sample, clients)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if stop(i) {
					return
				}
				k := list[i%int64(len(list))]
				o := &ops[k]
				t0 := time.Now()
				body, err := do(c, i, o)
				lat := time.Since(t0)
				ok := err == nil && check(o, body)
				if !ok {
					failed.Do(func() {
						if err == nil {
							err = fmt.Errorf("wrong answer to %s %q on %q", o.path, o.src, o.doc)
						}
						fmt.Fprintln(os.Stderr, "mhload: request failed:", err)
					})
				}
				per[c] = append(per[c], sample{op: k, lat: lat, end: time.Since(start), ok: ok})
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// untilCount stops a loop after n requests.
func untilCount(n int64) func(int64) bool { return func(i int64) bool { return i >= n } }

// untilTime stops a loop at the deadline.
func untilTime(deadline time.Time) func(int64) bool {
	return func(int64) bool { return !time.Now().Before(deadline) }
}

// tally counts attempts and failures across the phases of a run.
type tally struct{ attempted, failed int }

func (t *tally) add(samples []sample) {
	for _, s := range samples {
		t.attempted++
		if !s.ok {
			t.failed++
		}
	}
}

// latencies splits sample latencies into reads (queries and fan-outs)
// and updates.
func latencies(ops []op, samples []sample) (reads, updates []time.Duration) {
	for _, s := range samples {
		if ops[s.op].kind == opUpdate {
			updates = append(updates, s.lat)
		} else {
			reads = append(reads, s.lat)
		}
	}
	return reads, updates
}

// medianRate is the median, over the whole seconds of the loop, of the
// requests completed correctly in each; a stall or a burst of load from
// outside the benchmark then moves one window, not the result. Loops
// shorter than a second report their overall rate.
func medianRate(samples []sample, elapsed time.Duration) float64 {
	windows := make([]float64, int(elapsed/time.Second))
	ok := 0
	for _, s := range samples {
		if s.ok {
			ok++
			if w := int(s.end / time.Second); w < len(windows) {
				windows[w]++
			}
		}
	}
	if len(windows) == 0 {
		return float64(ok) / elapsed.Seconds()
	}
	return median(windows)
}

package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Every index must run exactly once, whatever the pool/parallelism
// shape.
func TestParallelForCoversAllItems(t *testing.T) {
	p := New(3)
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, par := range []int{1, 2, 4, 16} {
			counts := make([]atomic.Int32, n)
			p.ParallelFor(n, par, func(i, slot int) {
				counts[i].Add(1)
			})
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("n=%d par=%d: item %d ran %d times", n, par, i, got)
				}
			}
		}
	}
}

// A nil pool and par=1 must degrade to a plain serial loop.
func TestParallelForSerialFallback(t *testing.T) {
	var order []int
	var nilPool *Pool
	nilPool.ParallelFor(5, 8, func(i, slot int) {
		if slot != 0 {
			t.Fatalf("serial fallback used slot %d", slot)
		}
		order = append(order, i)
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial fallback out of order: %v", order)
		}
	}
	p := New(4)
	ran := 0
	p.ParallelFor(3, 1, func(i, slot int) { ran++ })
	if ran != 3 {
		t.Fatalf("par=1 ran %d of 3 items", ran)
	}
}

// Slots identify concurrent participants: no two goroutines may share
// a slot at the same time, and slots stay below par.
func TestParallelForSlotExclusivity(t *testing.T) {
	p := New(8)
	const n, par = 200, 4
	inSlot := make([]atomic.Int32, par)
	p.ParallelFor(n, par, func(i, slot int) {
		if slot < 0 || slot >= par {
			t.Errorf("slot %d out of range [0,%d)", slot, par)
			return
		}
		if inSlot[slot].Add(1) != 1 {
			t.Errorf("slot %d used concurrently", slot)
		}
		time.Sleep(50 * time.Microsecond)
		inSlot[slot].Add(-1)
	})
}

// Total concurrency must stay within par (caller + par-1 helpers).
func TestParallelForBoundsConcurrency(t *testing.T) {
	p := New(16)
	const n, par = 64, 3
	var cur, max atomic.Int64
	p.ParallelFor(n, par, func(i, slot int) {
		c := cur.Add(1)
		for {
			m := max.Load()
			if c <= m || max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
	})
	if got := max.Load(); got > par {
		t.Fatalf("observed %d concurrent items, par=%d", got, par)
	}
}

// A ParallelFor submitted from inside a pool-worker item must complete
// even when every other worker is blocked: the submitter helps itself.
func TestParallelForNestedNoDeadlock(t *testing.T) {
	p := New(2)
	// Saturate the pool: two long-running loops whose items block
	// until released.
	release := make(chan struct{})
	var blockers sync.WaitGroup
	blockers.Add(2)
	go func() {
		p.ParallelFor(2, 2, func(i, slot int) {
			blockers.Done()
			<-release
		})
	}()
	blockers.Wait() // both pool-visible items are now blocked
	done := make(chan struct{})
	go func() {
		// Nested shape: an outer loop whose items run inner loops. With
		// the pool saturated, every item must run on the submitting
		// goroutines alone.
		p.ParallelFor(3, 4, func(i, slot int) {
			var sum atomic.Int64
			p.ParallelFor(8, 4, func(j, s int) { sum.Add(int64(j)) })
			if sum.Load() != 28 {
				t.Errorf("inner loop incomplete: %d", sum.Load())
			}
		})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("nested ParallelFor deadlocked on a saturated pool")
	}
	close(release)
}

// Ensure only grows and Workers reports the size; gauges return to
// zero when idle.
func TestEnsureAndStats(t *testing.T) {
	p := New(2)
	p.Ensure(4)
	p.Ensure(1)
	if got := p.Workers(); got != 4 {
		t.Fatalf("Workers() = %d, want 4", got)
	}
	p.ParallelFor(32, 4, func(i, slot int) { time.Sleep(10 * time.Microsecond) })
	// Helpers have finished their items once ParallelFor returns
	// (completion counts every item); busy may need a beat to settle as
	// workers decrement after run returns.
	deadline := time.Now().Add(2 * time.Second)
	for p.Busy() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("Busy() stuck at %d", p.Busy())
		}
		time.Sleep(time.Millisecond)
	}
	if q := p.Queued(); q != 0 {
		t.Fatalf("Queued() = %d after completion", q)
	}
}

// A finished loop must not stay reachable from the pool: once a worker
// has popped its ticket, nothing f captured may be kept alive by the
// queue, so it is collectable as soon as ParallelFor returns.
func TestParallelForReleasesFinishedLoop(t *testing.T) {
	p := New(1)
	collected := make(chan struct{})
	func() {
		obj := new([1024]byte)
		runtime.SetFinalizer(obj, func(*[1024]byte) { close(collected) })
		helped := make(chan struct{})
		var once sync.Once
		p.ParallelFor(2, 2, func(i, slot int) {
			obj[i] = 1
			if slot == 0 {
				<-helped // hold the caller until the pool worker has run an item
				return
			}
			once.Do(func() { close(helped) })
		})
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the pool still references a finished loop's closure")
}

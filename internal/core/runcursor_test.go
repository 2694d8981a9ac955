package core

import (
	"testing"

	"mhxquery/internal/dom"
)

// TestRunCursorMatchesAppend checks that lazy iteration over the name
// runs yields exactly the nodes (and order) of materialized run
// appends, and that Len agrees with the stream.
func TestRunCursorMatchesAppend(t *testing.T) {
	d := nameIndexDoc(t)
	for _, name := range []string{"pg", "w"} {
		sym := d.NameSymOf(name)
		if sym == 0 {
			t.Fatalf("name %q not interned", name)
		}
		var rc RunCursor
		var want []*dom.Node
		for _, h := range d.Hiers {
			run := h.NameRun(sym)
			rc.Add(h, run)
			for _, ord := range run {
				want = append(want, h.Nodes[ord])
			}
		}
		if rc.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", name, rc.Len(), len(want))
		}
		var got []*dom.Node
		for {
			n, ok := rc.Next()
			if !ok {
				break
			}
			got = append(got, n)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: streamed %d nodes, want %d", name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: node %d differs", name, i)
			}
		}
		// Streamed output must be ascending document order.
		for i := 1; i < len(got); i++ {
			if dom.Compare(got[i-1], got[i]) >= 0 {
				t.Fatalf("%s: not ascending at %d", name, i)
			}
		}
		// Reset empties the cursor for reuse.
		rc.Reset()
		if rc.Len() != 0 {
			t.Fatalf("%s: Reset left %d candidates", name, rc.Len())
		}
		if _, ok := rc.Next(); ok {
			t.Fatalf("%s: Reset cursor yielded a node", name)
		}
	}
}

// TestRunCursorSubtreeRestriction checks lazy iteration over
// subtree-restricted runs (the index-scan segment shape).
func TestRunCursorSubtreeRestriction(t *testing.T) {
	d := nameIndexDoc(t)
	sym := d.NameSymOf("w")
	var h *Hierarchy
	for _, cand := range d.Hiers {
		if cand.Name == "str" {
			h = cand
		}
	}
	if h == nil {
		t.Fatal("no str hierarchy")
	}
	run := h.NameRun(sym)
	if len(run) != 3 {
		t.Fatalf("w run = %d entries, want 3", len(run))
	}
	// Restrict to the subtree of the second w: exactly itself.
	w2 := h.Nodes[run[1]]
	var rc RunCursor
	rc.Add(h, SubRun(run, w2.Ord-1, w2.Last))
	if rc.Len() != 1 {
		t.Fatalf("Len = %d, want 1", rc.Len())
	}
	n, ok := rc.Next()
	if !ok || n != w2 {
		t.Fatalf("restricted run yielded %v", n)
	}
}

// TestRunCursorEmpty checks the zero value and empty-run handling.
func TestRunCursorEmpty(t *testing.T) {
	var rc RunCursor
	if rc.Len() != 0 {
		t.Fatal("zero value not empty")
	}
	if _, ok := rc.Next(); ok {
		t.Fatal("zero value yielded a node")
	}
	rc.Add(&Hierarchy{}, nil) // empty runs are dropped
	if rc.Len() != 0 {
		t.Fatal("empty run counted")
	}
}

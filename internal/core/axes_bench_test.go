package core_test

import (
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
)

// Table P2: one extended axis evaluated from every w of a generated
// manuscript by the indexed default (Eval), the O(N) interval scan
// (EvalScan) and the literal Definition 1 transcription (EvalRef).
//
//	go test -run '^$' -bench BenchmarkAxes ./internal/core

func axisBenchDoc(b *testing.B, words int) *core.Document {
	b.Helper()
	c := corpus.Generate(corpus.Params{Seed: 2, Words: words, DamageRate: 0.15})
	d, err := c.Document()
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// impl selects one of the three extended-axis implementations: the
// indexed default, the O(N) interval scan, or the literal Definition 1
// set-based reference.
func benchAxis(b *testing.B, impl string, ax core.Axis, words int) {
	d := axisBenchDoc(b, words)
	h := d.HierarchyByName("structure")
	var targets []int
	for i, n := range h.Nodes {
		if n.Name == "w" {
			targets = append(targets, i)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := h.Nodes[targets[i%len(targets)]]
		switch impl {
		case "indexed":
			d.Eval(ax, n)
		case "scan":
			d.EvalScan(ax, n)
		default:
			d.EvalRef(ax, n)
		}
	}
}

func BenchmarkAxesOverlappingIndexed(b *testing.B) {
	benchAxis(b, "indexed", core.AxisOverlapping, 500)
}
func BenchmarkAxesOverlappingScan(b *testing.B)      { benchAxis(b, "scan", core.AxisOverlapping, 500) }
func BenchmarkAxesOverlappingReference(b *testing.B) { benchAxis(b, "ref", core.AxisOverlapping, 500) }
func BenchmarkAxesXAncestorIndexed(b *testing.B)     { benchAxis(b, "indexed", core.AxisXAncestor, 500) }
func BenchmarkAxesXAncestorScan(b *testing.B)        { benchAxis(b, "scan", core.AxisXAncestor, 500) }
func BenchmarkAxesXAncestorReference(b *testing.B)   { benchAxis(b, "ref", core.AxisXAncestor, 500) }
func BenchmarkAxesXDescendantIndexed(b *testing.B) {
	benchAxis(b, "indexed", core.AxisXDescendant, 500)
}
func BenchmarkAxesXDescendantScan(b *testing.B)   { benchAxis(b, "scan", core.AxisXDescendant, 500) }
func BenchmarkAxesXFollowingIndexed(b *testing.B) { benchAxis(b, "indexed", core.AxisXFollowing, 500) }
func BenchmarkAxesXFollowingScan(b *testing.B)    { benchAxis(b, "scan", core.AxisXFollowing, 500) }

package xquery

import (
	"bytes"
	"strings"
	"testing"

	"mhxquery/internal/core"
	"mhxquery/internal/corpus"
	"mhxquery/internal/store"
)

// mustEval evaluates src against d and serializes the result.
func mustEval(t *testing.T, d *core.Document, src string) string {
	t.Helper()
	out, err := EvalString(d, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return out
}

// mustUpdate compiles and applies an update, returning the new version.
func mustUpdate(t *testing.T, d *core.Document, src string) (*core.Document, *UpdateReport) {
	t.Helper()
	u, err := CompileUpdate(src)
	if err != nil {
		t.Fatalf("CompileUpdate(%s): %v", src, err)
	}
	nd, rep, err := u.Apply(d)
	if err != nil {
		t.Fatalf("Apply(%s): %v", src, err)
	}
	return nd, rep
}

func TestUpdateParseErrors(t *testing.T) {
	cases := []string{
		"",
		"insert",
		"insert node",
		"insert node 123 into //w",
		"insert node x sideways //w",
		"delete //w",
		"rename node //w",
		"replace node //w with 'x'",
		"delete node //w extra",
		"insert hierarchy marks from //w", // name must be a string literal
	}
	for _, src := range cases {
		if _, err := CompileUpdate(src); err == nil {
			t.Errorf("CompileUpdate(%q): expected error", src)
		} else if xe, ok := err.(*Error); !ok || xe.Code == "" {
			t.Errorf("CompileUpdate(%q): error without code: %v", src, err)
		}
	}
}

func TestUpdateDeleteRenameInsert(t *testing.T) {
	d := corpus.MustBoethius()
	before := mustEval(t, d, `count(//dmg)`)

	nd, rep := mustUpdate(t, d, `delete node (//dmg)[1]`)
	if rep.Edits != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got, want := mustEval(t, nd, `count(//dmg)`), "1"; got != want {
		t.Fatalf("count(//dmg) after delete = %s, want %s (before: %s)", got, want, before)
	}
	// The original version is untouched — snapshot semantics.
	if got := mustEval(t, d, `count(//dmg)`); got != before {
		t.Fatalf("original version changed: %s -> %s", before, got)
	}

	nd2, _ := mustUpdate(t, nd, `rename node //dmg as "damage-span"`)
	if got := mustEval(t, nd2, `count(//damage-span)`); got != "1" {
		t.Fatalf("count(//damage-span) = %s", got)
	}
	if nd2.Rev != 2 {
		t.Fatalf("Rev = %d, want 2", nd2.Rev)
	}

	// A single compiled query shares one plan across versions: scan
	// operators bind names to the document they run on. The name "damage-span" did not
	// exist in nd, which the plan is built against, so a binding made at
	// plan time would hard-code an empty run for the later version.
	for _, tc := range []struct {
		src, op string
		later   *core.Document
	}{
		{`//damage-span`, "index-scan", nd2},
	} {
		q := MustCompile(tc.src)
		pl := q.PlanFor(nd)
		if q.PlanFor(tc.later) != pl {
			t.Fatalf("%s: versions of one document got different plans", tc.src)
		}
		if ops := findOps(pl.Describe(), tc.op); len(ops) != 1 {
			t.Fatalf("%s: plan has %d %s operators, want 1", tc.src, len(ops), tc.op)
		}
		for _, v := range []struct {
			d    *core.Document
			want int
		}{{nd, 0}, {tc.later, 1}, {nd, 0}} {
			strict, err := q.Eval(v.d)
			if err != nil || len(strict) != v.want {
				t.Fatalf("%s on rev %d, strict: %d items (err %v), want %d", tc.src, v.d.Rev, len(strict), err, v.want)
			}
			streamed, err := q.Stream(nil, v.d, nil, nil).Take(0)
			if err != nil || len(streamed) != v.want {
				t.Fatalf("%s on rev %d, stream: %d items (err %v), want %d", tc.src, v.d.Rev, len(streamed), err, v.want)
			}
		}
	}

	// Wrap all children of a w element; then point inserts around it.
	nd3, _ := mustUpdate(t, nd2, `insert node stem into (//w)[2], insert node anchor before (//w)[2]`)
	if got := mustEval(t, nd3, `count(//stem)`); got != "1" {
		t.Fatalf("count(//stem) = %s", got)
	}
	if got := mustEval(t, nd3, `count(//anchor)`); got != "1" {
		t.Fatalf("count(//anchor) = %s", got)
	}
	// The wrap preserves the text exactly.
	if got, want := mustEval(t, nd3, `string((//w)[2])`), mustEval(t, d, `string((//w)[2])`); got != want {
		t.Fatalf("wrapped word = %q, want %q", got, want)
	}
}

func TestUpdateReplaceValue(t *testing.T) {
	d := corpus.MustBoethius()
	orig := mustEval(t, d, `string((//w)[1])`)
	repl := strings.Repeat("x", len(orig))
	nd, _ := mustUpdate(t, d, `replace value of node (//w)[1] with "`+repl+`"`)
	if got := mustEval(t, nd, `string((//w)[1])`); got != repl {
		t.Fatalf("replaced word = %q, want %q", got, repl)
	}
	if got := mustEval(t, d, `string((//w)[1])`); got != orig {
		t.Fatalf("original mutated: %q", got)
	}
}

func TestUpdatePersistAnalyzeStringOverlay(t *testing.T) {
	d := corpus.MustBoethius()
	// Persist the matches of an analyze-string overlay as a durable
	// hierarchy, then query it like any other hierarchy — including
	// through a binary store round-trip.
	nd, rep := mustUpdate(t, d, `insert hierarchy "marks" from analyze-string(/, "gecynde")/child::m`)
	if rep.Stats.HierarchiesAdded != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if got := nd.HierarchyNames(); got[len(got)-1] != "marks" {
		t.Fatalf("hierarchies = %v", got)
	}
	if got := mustEval(t, nd, `string(/descendant::m)`); got != "gecynde" {
		t.Fatalf("persisted match = %q", got)
	}
	if got := mustEval(t, nd, `count(/descendant::node('marks'))`); got == "0" {
		t.Fatal("hierarchy-qualified test found nothing in marks")
	}
	// The persisted overlay interacts with the other hierarchies.
	if got := mustEval(t, nd, `count(//m[xdescendant::w or xancestor::w or overlapping::w])`); got != "1" {
		t.Fatalf("m vs w interaction = %q", got)
	}

	var img bytes.Buffer
	if err := store.Encode(&img, nd); err != nil {
		t.Fatal(err)
	}
	rd, err := store.Decode(&img)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustEval(t, rd, `string(/descendant::m)`); got != "gecynde" {
		t.Fatalf("after store round-trip: %q", got)
	}

	// And remove it again.
	nd2, _ := mustUpdate(t, nd, `delete hierarchy "marks"`)
	if got := mustEval(t, nd2, `count(//m)`); got != "0" {
		t.Fatalf("count(//m) after removal = %s", got)
	}
}

func TestUpdateErrorCodes(t *testing.T) {
	d := corpus.MustBoethius()
	cases := []struct {
		src  string
		code string
	}{
		{`delete node 42`, "MHXQ0101"},
		{`rename node //w as ("a","b")`, "MHXQ0101"},
		{`rename node //w as "line"`, "MHXQ0102"},           // vocabulary of another hierarchy
		{`delete node /`, "MHXQ0102"},                       // the shared root cannot be edited
		{`delete hierarchy "nope"`, "MHXQ0102"},             // unknown hierarchy
		{`insert hierarchy "x" from (//w)[99]`, "MHXQ0101"}, // empty source
		{`insert node w into (//line)[1]`, "MHXQ0102"},      // w belongs to structure, not physical
	}
	for _, c := range cases {
		u, err := CompileUpdate(c.src)
		if err != nil {
			t.Fatalf("CompileUpdate(%s): %v", c.src, err)
		}
		_, _, err = u.Apply(d)
		if err == nil {
			t.Errorf("%s: expected error", c.src)
			continue
		}
		xe, ok := err.(*Error)
		if !ok || xe.Code != c.code {
			t.Errorf("%s: error %v, want code %s", c.src, err, c.code)
		}
	}
}

func TestUpdateDescribe(t *testing.T) {
	d := corpus.MustBoethius()
	u, err := CompileUpdate(`rename node (//w)[1] as "word", delete hierarchy "damage"`)
	if err != nil {
		t.Fatal(err)
	}
	tree := u.Describe(d)
	if tree.Op != "update" || len(tree.Children) != 2 {
		t.Fatalf("describe tree = %+v", tree)
	}
	if tree.Children[0].Op != "update-prim" || len(tree.Children[0].Children) == 0 {
		t.Fatalf("first primitive has no lowered plan: %+v", tree.Children[0])
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"

	"mhxquery"
)

// The paper-read query set: the paper's Queries I.1, I.2, II.1 and
// III.1 (the last two build analyze-string overlays), the damaged-word
// count, overlapping-word strings, a nested FLWOR join, and the cold
// query. All of them run against the four-hierarchy shape corpus.Generate
// emits (physical/line, structure/vline+w, restoration/res, damage/dmg).
const (
	queryI1 = `for $l in /descendant::line
  [xdescendant::w[string(.) = 'singallice'] or overlapping::w[string(.) = 'singallice']]
return string($l)`
	queryI2 = `for $l in /descendant::line[xdescendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]]
return ( for $leaf in $l/descendant::leaf() return
   if ($leaf[ancestor::w and ancestor::dmg]) then <b>{$leaf}</b> else $leaf
 , <br/> )`
	queryII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return if ($n[self::m]) then <b>{string($n)}</b> else string($n)
  ,
  <br/>
)`
	queryIII1 = `for $w in /descendant::w[matches(string(.), ".*unawe.*")]
return (
  let $res := analyze-string($w, ".*unawe.*")
  for $n in $res/child::node()
  return
    if ($n[self::m][xancestor::res('restoration') or xdescendant::res('restoration') or overlapping::res('restoration')])
    then <i><b>{string($n)}</b></i>
    else <b>{string($n)}</b>
  ,
  <br/>
)`
	queryDamaged     = `count(/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg])`
	queryOverlapping = `for $w in //w[overlapping::line] return string($w)`
	queryJoin        = `for $v in /descendant::vline
for $w in $v/child::w
where exists($w/overlapping::dmg)
return string($w)`
	// queryCold is the first query every freshly started server sees on
	// each document (cold_query_ms).
	queryCold = `count(//w[overlapping::line])`
)

var paperQueries = []string{queryI1, queryI2, queryII1, queryIII1, queryDamaged, queryOverlapping, queryJoin, queryCold}

// listLen is the length of every workload's request list. Clients walk
// it in order through one shared index and wrap around.
const listLen = 1 << 16

// adhocPool is the number of distinct adhoc-small requests: 16x the
// default 128-entry compile cache, so the caches keep missing.
const adhocPool = 2048

// workload is one traffic mix. gen fills the builder's request list from
// the seeded generator; the program under test only ever sees the
// generated requests.
type workload struct {
	name    string
	clients int
	gen     func(r *rand.Rand, b *builder, docs []docInfo)
}

// Every list is a sequence of shuffled blocks that each hold the
// workload's exact mix, so any stretch of requests longer than a block
// does the same work under every seed.
var workloads = []workload{
	{"paper-read", 2, func(r *rand.Rand, b *builder, docs []docInfo) {
		pairs := b.paperPairs(docs)
		fill(r, b.list, func() []int32 { return append([]int32(nil), pairs...) })
	}},
	{"adhoc-small", 2, func(r *rand.Rand, b *builder, docs []docInfo) {
		var pool []int32
		seen := map[int32]bool{}
		for len(pool) < adhocPool {
			if k := b.add(adhocOp(r, docs, len(pool))); !seen[k] {
				seen[k] = true
				pool = append(pool, k)
			}
		}
		fill(r, b.list, func() []int32 { return append([]int32(nil), pool...) })
	}},
	{"fanout-scan", 1, func(r *rand.Rand, b *builder, docs []docInfo) {
		ops := []int32{
			b.add(op{kind: opFanout, src: queryDamaged, pattern: "*"}),
			b.add(op{kind: opFanout, src: queryOverlapping, pattern: "*", format: "text"}),
			b.add(op{kind: opFanout, src: `//w[overlapping::dmg]`, pattern: "*", limit: 50}),
			b.add(op{kind: opFanout, src: queryCold, pattern: "*"}),
		}
		fill(r, b.list, func() []int32 { return append([]int32(nil), ops...) })
	}},
	{"annotate-mixed", 2, func(r *rand.Rand, b *builder, docs []docInfo) {
		// A block is every paper read four times (512) and 128 updates
		// (20%): 26 to each of 4 hot documents (81% of updates, so each
		// hot document passes the default 256-record snapshot trigger)
		// and 2 to each other document. The hot documents are the ones
		// of size ranks 1, 5, 9 and 13 of 16.
		pairs := b.paperPairs(docs)
		bySize := make([]int, numDocs)
		for i := range bySize {
			bySize[i] = i
		}
		sort.Slice(bySize, func(i, j int) bool { return len(docs[bySize[i]].words) < len(docs[bySize[j]].words) })
		updates := make([]int, numDocs)
		for rank, i := range bySize {
			updates[i] = 2
			if rank%4 == 1 {
				updates[i] = 26
			}
		}
		fill(r, b.list, func() []int32 {
			var blk []int32
			for k := 0; k < 4; k++ {
				blk = append(blk, pairs...)
			}
			for i, n := range updates {
				for k := 0; k < n; k++ {
					blk = append(blk, b.add(op{kind: opUpdate, doc: docs[i].name, src: updateSource(r, &docs[i])}))
				}
			}
			return blk
		})
	}},
}

// fill fills list with successive seeded shuffles of the blocks next
// returns.
func fill(r *rand.Rand, list []int32, next func() []int32) {
	for i := 0; i < len(list); {
		blk := next()
		r.Shuffle(len(blk), func(a, c int) { blk[a], blk[c] = blk[c], blk[a] })
		i += copy(list[i:], blk)
	}
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// adhocOp draws the i-th small ad-hoc request from seeded literals and
// positions. The shape is fixed by i, so every pool has the same mix:
// half plain queries, a quarter early-exit shapes under ?limit=3, a
// quarter ?stream=1 NDJSON, spread evenly over the documents.
func adhocOp(r *rand.Rand, docs []docInfo, i int) op {
	d := &docs[(i/4)%numDocs]
	variant := i / (4 * numDocs)
	word := func() string { return d.words[r.IntN(len(d.words))] }
	o := op{kind: opQuery, doc: d.name}
	switch i % 4 {
	case 0, 1:
		switch variant % 5 {
		case 0:
			o.src = fmt.Sprintf(`(//w[string(.)='%s'])[%d]`, word(), r.IntN(8)+1)
		case 1:
			o.src = fmt.Sprintf(`count(//line[%d]/overlapping::w)`, r.IntN(d.lines)+1)
		case 2:
			o.src = fmt.Sprintf(`string((//vline)[%d])`, r.IntN(len(d.words)/5)+1)
		case 3:
			o.src = fmt.Sprintf(`exists((//w)[%d][overlapping::dmg])`, r.IntN(len(d.words))+1)
		default:
			o.src = fmt.Sprintf(`count((//res)[%d]/overlapping::w)`, r.IntN(40)+1)
		}
	case 2:
		o.src = fmt.Sprintf(`//w[string(.)='%s' or string(.)='%s']`, word(), word())
		o.limit = 3
	default:
		if variant%2 == 0 {
			o.src = fmt.Sprintf(`for $w in (//vline)[%d]/w return string($w)`, r.IntN(len(d.words)/5)+1)
		} else {
			o.src = fmt.Sprintf(`(//line)[%d]/overlapping::w`, r.IntN(d.lines)+1)
		}
		o.stream = true
	}
	return o
}

type opKind uint8

const (
	opQuery  opKind = iota // POST /query against one document
	opFanout               // POST /query across collection:"*"
	opUpdate               // POST /update
)

// op is one distinct request: its parameters, its wire form and the
// answer it must produce.
type op struct {
	kind    opKind
	doc     string
	src     string // query or update source
	pattern string // fan-out glob
	format  string // "" (xml) or "text"
	limit   int
	stream  bool

	path string // HTTP path with query parameters
	body []byte // HTTP request body
	want expect
}

// expect is the correct answer of an op.
type expect struct {
	rows      []resultRow // query and fan-out: the "results" array
	items     []string    // stream: one NDJSON item per result item
	textBytes int         // update: the text length, which never changes
}

// Wire types of cmd/mhserve (mirrored: they live in its main package).
type queryRequest struct {
	Query      string `json:"query"`
	Doc        string `json:"doc,omitempty"`
	Collection string `json:"collection,omitempty"`
	Format     string `json:"format,omitempty"`
}

type updateRequest struct {
	Doc    string `json:"doc"`
	Update string `json:"update"`
}

type resultRow struct {
	Doc    string  `json:"doc"`
	Result *string `json:"result,omitempty"`
	Error  string  `json:"error,omitempty"`
}

type queryResponse struct {
	Results []resultRow `json:"results"`
}

type streamRow struct {
	Doc   string `json:"doc"`
	Item  string `json:"item,omitempty"`
	Error string `json:"error,omitempty"`
}

type updateResponse struct {
	Doc  string `json:"doc"`
	Info struct {
		TextBytes int `json:"text_bytes"`
	} `json:"info"`
}

// builder interns ops and holds the workload's request list.
type builder struct {
	ops   []op
	index map[string]int32
	list  []int32
}

func newBuilder() *builder {
	return &builder{index: map[string]int32{}, list: make([]int32, listLen)}
}

// add interns o, filling in its wire form, and returns its index.
func (b *builder) add(o op) int32 {
	key := fmt.Sprintf("%d\x00%s\x00%s\x00%s\x00%s\x00%d\x00%t", o.kind, o.doc, o.src, o.pattern, o.format, o.limit, o.stream)
	if k, ok := b.index[key]; ok {
		return k
	}
	o.path = "/query"
	switch {
	case o.kind == opUpdate:
		o.path = "/update"
		o.body, _ = json.Marshal(updateRequest{Doc: o.doc, Update: o.src})
	case o.stream:
		o.path += "?stream=1"
	case o.limit > 0:
		o.path += "?limit=" + strconv.Itoa(o.limit)
	}
	if o.kind != opUpdate {
		o.body, _ = json.Marshal(queryRequest{Query: o.src, Doc: o.doc, Collection: o.pattern, Format: o.format})
	}
	k := int32(len(b.ops))
	b.ops = append(b.ops, o)
	b.index[key] = k
	return k
}

// paperPairs interns every (paper query, document) read.
func (b *builder) paperPairs(docs []docInfo) []int32 {
	var out []int32
	for _, q := range paperQueries {
		for _, d := range docs {
			out = append(out, b.add(op{kind: opQuery, doc: d.name, src: q}))
		}
	}
	return out
}

// coldOps interns the cold query against every document, in name order.
func (b *builder) coldOps(docs []docInfo) []int32 {
	out := make([]int32, len(docs))
	for i, d := range docs {
		out[i] = b.add(op{kind: opQuery, doc: d.name, src: queryCold})
	}
	return out
}

// probeOps interns the set-up probes of the traced run: one
// content-preserving update per document and the damaged-word fan-out,
// so every layer's spans have samples on every workload.
func (b *builder) probeOps(r *rand.Rand, docs []docInfo) (updates []int32, fanout int32) {
	for i := range docs {
		updates = append(updates, b.add(op{kind: opUpdate, doc: docs[i].name, src: updateSource(r, &docs[i])}))
	}
	return updates, b.add(op{kind: opFanout, src: queryDamaged, pattern: "*"})
}

// distinctReads lists the reads of the request list once each, in
// order of first appearance.
func (b *builder) distinctReads() []int32 {
	seen := make([]bool, len(b.ops))
	var out []int32
	for _, k := range b.list {
		if !seen[k] && b.ops[k].kind != opUpdate {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// expectAll computes every op's answer in-process with the public
// mhxquery API on the prepared collection. Updates are content-preserving
// fixed points, so these answers hold for the whole run.
func expectAll(coll *mhxquery.Collection, ops []op, docs []docInfo) error {
	textBytes := map[string]int{}
	for _, d := range docs {
		textBytes[d.name] = d.textBytes
	}
	ctx := context.Background()
	for i := range ops {
		o := &ops[i]
		render := mhxquery.Sequence.String
		if o.format == "text" {
			render = mhxquery.Sequence.Text
		}
		switch {
		case o.kind == opUpdate:
			o.want.textBytes = textBytes[o.doc]
		case o.kind == opFanout:
			res, err := coll.QueryMatchingLimit(ctx, o.pattern, o.src, o.limit)
			if err != nil {
				return fmt.Errorf("expectation for %q: %w", o.src, err)
			}
			for _, r := range res {
				if r.Err != nil {
					return fmt.Errorf("expectation for %q on %s: %w", o.src, r.Name, r.Err)
				}
				out := render(r.Result)
				o.want.rows = append(o.want.rows, resultRow{Doc: r.Name, Result: &out})
			}
		default:
			// The same evaluation routes mhserve takes: strict without a
			// limit, a stream stopped at the limit, item-at-a-time rows.
			var seq mhxquery.Sequence
			st, err := coll.StreamDoc(ctx, o.doc, o.src)
			switch {
			case err != nil:
			case o.stream:
				for {
					item, ok, ierr := st.Next()
					if err = ierr; err != nil || !ok {
						break
					}
					o.want.items = append(o.want.items, render(item))
				}
			case o.limit > 0:
				seq, err = st.Take(o.limit)
			default:
				seq, err = coll.Query(o.doc, o.src)
			}
			if err != nil {
				return fmt.Errorf("expectation for %q on %s: %w", o.src, o.doc, err)
			}
			if !o.stream {
				out := render(seq)
				o.want.rows = []resultRow{{Doc: o.doc, Result: &out}}
			}
		}
	}
	return nil
}

// check reports whether body is the correct response to o, comparing
// decoded values rather than bytes so that harmless encoding changes
// in the server do not count as wrong answers.
func check(o *op, body []byte) bool {
	switch {
	case o.kind == opUpdate:
		var r updateResponse
		return json.Unmarshal(body, &r) == nil && r.Doc == o.doc && r.Info.TextBytes == o.want.textBytes
	case o.stream:
		lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
		if len(body) == 0 {
			lines = nil
		}
		if len(lines) != len(o.want.items) {
			return false
		}
		for i, l := range lines {
			var row streamRow
			if json.Unmarshal(l, &row) != nil || row.Error != "" || row.Doc != o.doc || row.Item != o.want.items[i] {
				return false
			}
		}
		return true
	default:
		var r queryResponse
		if json.Unmarshal(body, &r) != nil || len(r.Results) != len(o.want.rows) {
			return false
		}
		for i, got := range r.Results {
			want := o.want.rows[i]
			if got.Error != "" || got.Doc != want.Doc || got.Result == nil || *got.Result != *want.Result {
				return false
			}
		}
		return true
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mhxquery"
)

// resultOf unwraps a row's result pointer ("<absent>" when nil, which
// marks an errored row).
func resultOf(q queryResult) string {
	if q.Result == nil {
		return "<absent>"
	}
	return *q.Result
}

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newTestServerWith(t, 0)
	return ts
}

// newTestServerWith builds a server with a slow-query threshold and
// returns it along with the underlying server value (for log/metric
// assertions). Request logs go to io.Discard to keep test output quiet.
func newTestServerWith(t *testing.T, slow time.Duration) (*httptest.Server, *server) {
	t.Helper()
	coll, err := openCollection("", mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{coll: coll, slow: slow, logger: discardLogger()}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return ts, s
}

// do issues a JSON request and decodes the JSON response into out.
func do(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decoding response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func putTestDoc(t *testing.T, base, name, pages, words string) {
	t.Helper()
	req := putDocRequest{Hierarchies: []hierarchyJSON{
		{Name: "pages", XML: pages},
		{Name: "words", XML: words},
	}}
	var info docInfo
	if code := do(t, http.MethodPut, base+"/docs/"+name, req, &info); code != http.StatusCreated {
		t.Fatalf("PUT %s: status %d", name, code)
	}
	if info.Name != name || len(info.Hierarchies) != 2 {
		t.Fatalf("PUT %s: info %+v", name, info)
	}
}

func TestServerEndToEnd(t *testing.T) {
	ts := newTestServer(t)

	// An empty corpus lists as [], never null.
	var empty struct {
		Docs  json.RawMessage `json:"docs"`
		Count int             `json:"count"`
	}
	if code := do(t, http.MethodGet, ts.URL+"/docs", nil, &empty); code != http.StatusOK {
		t.Fatalf("GET /docs (empty): status %d", code)
	}
	if string(empty.Docs) != "[]" || empty.Count != 0 {
		t.Fatalf("empty corpus listing = %s, count %d", empty.Docs, empty.Count)
	}

	// Ingest two documents.
	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)
	putTestDoc(t, ts.URL, "greet",
		`<r><page>Good day</page></r>`,
		`<r><w>Good</w> <w>day</w></r>`)

	// healthz reports the corpus size.
	var health struct {
		Status string `json:"status"`
		Docs   int    `json:"docs"`
	}
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, &health); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if health.Status != "ok" || health.Docs != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	// Listing.
	var list struct {
		Docs  []docInfo `json:"docs"`
		Count int       `json:"count"`
	}
	if code := do(t, http.MethodGet, ts.URL+"/docs", nil, &list); code != http.StatusOK {
		t.Fatalf("GET /docs: status %d", code)
	}
	if list.Count != 2 || list.Docs[0].Name != "greet" || list.Docs[1].Name != "hello" {
		t.Fatalf("GET /docs = %+v", list)
	}
	if list.Docs[1].Stats.Hierarchies != 2 || list.Docs[1].TextBytes != len("Hello world") {
		t.Fatalf("hello info = %+v", list.Docs[1])
	}

	// Single-document query: the multihierarchical overlap axis.
	var qr queryResponse
	code := do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `for $w in /descendant::w[overlapping::page] return string($w)`, Doc: "hello"}, &qr)
	if code != http.StatusOK {
		t.Fatalf("POST /query: status %d", code)
	}
	if len(qr.Results) != 1 || resultOf(qr.Results[0]) != "world" {
		t.Fatalf("single-doc query = %+v", qr)
	}

	// Collection-wide fan-out, text format.
	qr = queryResponse{}
	code = do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `count(/descendant::w)`, Format: "text"}, &qr)
	if code != http.StatusOK {
		t.Fatalf("POST /query (collection): status %d", code)
	}
	if len(qr.Results) != 2 || qr.Results[0].Doc != "greet" || resultOf(qr.Results[0]) != "2" ||
		qr.Results[1].Doc != "hello" || resultOf(qr.Results[1]) != "2" {
		t.Fatalf("collection query = %+v", qr)
	}

	// Glob-restricted fan-out.
	qr = queryResponse{}
	if code := do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `string(/descendant::page[1])`, Collection: "h*"}, &qr); code != http.StatusOK {
		t.Fatalf("POST /query (glob): status %d", code)
	}
	if len(qr.Results) != 1 || qr.Results[0].Doc != "hello" || resultOf(qr.Results[0]) != "Hello wo" {
		t.Fatalf("glob query = %+v", qr)
	}

	// Cross-document doc() reference inside a query.
	qr = queryResponse{}
	if code := do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `string-join((for $w in doc("greet")/descendant::w return string($w)), " ")`, Doc: "hello"}, &qr); code != http.StatusOK {
		t.Fatalf("POST /query (doc()): status %d", code)
	}
	if resultOf(qr.Results[0]) != "Good day" {
		t.Fatalf("doc() query = %+v", qr)
	}

	// Re-ingest replaces (200, not 201) and DELETE removes.
	req := putDocRequest{Hierarchies: []hierarchyJSON{
		{Name: "pages", XML: `<r><page>Bye</page></r>`},
		{Name: "words", XML: `<r><w>Bye</w></r>`},
	}}
	if code := do(t, http.MethodPut, ts.URL+"/docs/hello", req, &docInfo{}); code != http.StatusOK {
		t.Fatalf("replace: status %d", code)
	}
	if code := do(t, http.MethodDelete, ts.URL+"/docs/hello", nil, nil); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/docs/hello", nil, &errorResponse{}); code != http.StatusNotFound {
		t.Fatalf("get after delete: status %d", code)
	}
}

func TestServerErrors(t *testing.T) {
	ts := newTestServer(t)
	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"query unknown doc", "POST", "/query", queryRequest{Query: `1`, Doc: "nope"}, http.StatusNotFound},
		{"query bad syntax", "POST", "/query", queryRequest{Query: `for $x in`, Doc: "hello"}, http.StatusBadRequest},
		{"query empty", "POST", "/query", queryRequest{Doc: "hello"}, http.StatusBadRequest},
		{"query bad format", "POST", "/query", queryRequest{Query: `1`, Doc: "hello", Format: "yaml"}, http.StatusBadRequest},
		{"query doc+collection", "POST", "/query", queryRequest{Query: `1`, Doc: "hello", Collection: "*"}, http.StatusBadRequest},
		{"query bad glob", "POST", "/query", queryRequest{Query: `1`, Collection: "["}, http.StatusBadRequest},
		{"get unknown", "GET", "/docs/nope", nil, http.StatusNotFound},
		{"delete unknown", "DELETE", "/docs/nope", nil, http.StatusNotFound},
		{"put empty", "PUT", "/docs/x", putDocRequest{}, http.StatusBadRequest},
		{"put bad xml", "PUT", "/docs/x", putDocRequest{Hierarchies: []hierarchyJSON{{Name: "a", XML: "<r>"}}}, http.StatusBadRequest},
		{"put mismatched text", "PUT", "/docs/x", putDocRequest{Hierarchies: []hierarchyJSON{
			{Name: "a", XML: "<r>ab</r>"}, {Name: "b", XML: "<r>xy</r>"},
		}}, http.StatusBadRequest},
		{"put invalid name", "PUT", "/docs/a%20b", putDocRequest{Hierarchies: []hierarchyJSON{{Name: "a", XML: "<r>ab</r>"}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		var er errorResponse
		code := do(t, tc.method, ts.URL+tc.path, tc.body, &er)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, code, tc.want, er.Error)
			continue
		}
		if er.Error == "" {
			t.Errorf("%s: no error message in body", tc.name)
		}
	}

	// Malformed JSON body.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", resp.StatusCode)
	}
}

func TestServerPersistence(t *testing.T) {
	dir := t.TempDir()
	coll, err := openCollection(dir, mhxquery.CollectionOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{coll: coll, logger: discardLogger()}
	ts := httptest.NewServer(s.routes())

	// The preloaded Boethius fixture answers a paper query.
	var qr queryResponse
	if code := do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `count(/descendant::w[overlapping::line])`, Doc: "boethius"}, &qr); code != http.StatusOK {
		t.Fatalf("boethius query: status %d", code)
	}
	if resultOf(qr.Results[0]) != "1" {
		t.Fatalf("boethius query = %+v", qr)
	}
	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)
	ts.Close()
	coll.Close()

	// A second server over the same directory recovers the corpus.
	coll2, err := openCollection(dir, mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &server{coll: coll2, logger: discardLogger()}
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()
	var list struct {
		Count int `json:"count"`
	}
	if code := do(t, http.MethodGet, ts2.URL+"/docs", nil, &list); code != http.StatusOK || list.Count != 2 {
		t.Fatalf("reopened corpus: count=%d", list.Count)
	}
	qr = queryResponse{}
	if code := do(t, http.MethodPost, ts2.URL+"/query",
		queryRequest{Query: `string(/descendant::w[overlapping::page])`, Doc: "hello"}, &qr); code != http.StatusOK {
		t.Fatalf("reopened query: status %d", code)
	}
	if resultOf(qr.Results[0]) != "world" {
		t.Fatalf("reopened query = %+v", qr)
	}
}

// TestPprofRegistered checks that importing net/http/pprof wired the
// profiling handlers onto the default mux (which only the -pprof
// listener serves) and that the query API mux does NOT expose them.
func TestPprofRegistered(t *testing.T) {
	req := httptest.NewRequest("GET", "http://pprof/debug/pprof/cmdline", nil)
	rec := httptest.NewRecorder()
	http.DefaultServeMux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("default mux /debug/pprof/cmdline = %d, want 200", rec.Code)
	}

	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("query API mux exposes /debug/pprof — profiling must stay on the -pprof listener")
	}
}

func TestServerExplain(t *testing.T) {
	ts := newTestServer(t)
	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)

	var resp queryResponse
	code := do(t, http.MethodPost, ts.URL+"/query?explain=1",
		queryRequest{Query: `/descendant::w`, Doc: "hello"}, &resp)
	if code != http.StatusOK {
		t.Fatalf("explain query: status %d", code)
	}
	if len(resp.Results) != 1 || resultOf(resp.Results[0]) != `<w>Hello</w><w>world</w>` {
		t.Fatalf("explain results = %+v", resp.Results)
	}
	if resp.Plan == nil || resp.Plan.Op != "query" {
		t.Fatalf("explain plan = %+v", resp.Plan)
	}
	// The //w-style leading step must surface as an index scan with its
	// observed cardinality.
	found := false
	var walk func(op *mhxquery.PlanOp)
	walk = func(op *mhxquery.PlanOp) {
		if op.Op == "index-scan" && op.Index && op.OutRows == 2 {
			found = true
		}
		for _, k := range op.Children {
			walk(k)
		}
	}
	walk(resp.Plan)
	if !found {
		b, _ := json.Marshal(resp.Plan)
		t.Fatalf("no index-scan operator with out_rows=2 in plan: %s", b)
	}

	// Without explain the plan is absent.
	resp = queryResponse{}
	if code := do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `/descendant::w`, Doc: "hello"}, &resp); code != http.StatusOK {
		t.Fatalf("plain query: status %d", code)
	}
	if resp.Plan != nil {
		t.Fatal("plan present without explain=1")
	}

	// EXPLAIN needs a single target document.
	var errResp errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/query?explain=1",
		queryRequest{Query: `1`}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("explain without doc: status %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/query?explain=2",
		queryRequest{Query: `1`, Doc: "hello"}, &errResp); code != http.StatusBadRequest {
		t.Fatalf("explain=2: status %d", code)
	}
}

// putHelloDoc ingests the small two-hierarchy hello/world fixture.
func putHelloDoc(t *testing.T, ts *httptest.Server, name string) {
	t.Helper()
	putTestDoc(t, ts.URL, name,
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)
}

// rawQuery posts a query body and returns the raw response.
func rawQuery(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, sb.String()
}

func TestServerStreamNDJSON(t *testing.T) {
	ts := newTestServer(t)
	putHelloDoc(t, ts, "a")
	putHelloDoc(t, ts, "b")

	// Single-document stream: one NDJSON row per item.
	resp, body := rawQuery(t, ts, "/query?stream=1", queryRequest{Query: `/descendant::w`, Doc: "a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 rows, got %d: %q", len(lines), body)
	}
	var row streamRow
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatal(err)
	}
	if row.Doc != "a" || row.Item != "<w>Hello</w>" {
		t.Fatalf("row = %+v", row)
	}

	// Collection-wide stream with a limit: rows come in name order and
	// stop at the limit.
	resp, body = rawQuery(t, ts, "/query?stream=1&limit=3", queryRequest{Query: `/descendant::w/string(.)`, Format: "text"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	lines = strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 3 {
		t.Fatalf("want 3 rows, got %d: %q", len(lines), body)
	}
	var docs, items []string
	for _, ln := range lines {
		var r streamRow
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, r.Doc)
		items = append(items, r.Item)
	}
	if got := strings.Join(docs, ","); got != "a,a,b" {
		t.Fatalf("docs = %s", got)
	}
	if got := strings.Join(items, ","); got != "Hello,world,Hello" {
		t.Fatalf("items = %s", got)
	}
}

func TestServerQueryLimit(t *testing.T) {
	ts := newTestServer(t)
	putHelloDoc(t, ts, "a")
	putHelloDoc(t, ts, "b")

	// Doc-targeted limit.
	var resp queryResponse
	if status := do(t, "POST", ts.URL+"/query?limit=1", queryRequest{Query: `/descendant::w`, Doc: "a"}, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if got := resultOf(resp.Results[0]); got != "<w>Hello</w>" {
		t.Fatalf("limited result = %q", got)
	}

	// Collection-wide limit: the budget is spent in name order.
	resp = queryResponse{}
	if status := do(t, "POST", ts.URL+"/query?limit=3", queryRequest{Query: `/descendant::w/string(.)`, Format: "text"}, &resp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("results = %+v", resp.Results)
	}
	if a, b := resultOf(resp.Results[0]), resultOf(resp.Results[1]); a != "Hello world" || b != "Hello" {
		t.Fatalf("limited fan-out = %q / %q", a, b)
	}
}

// TestServerQueryBodyTooLarge exercises the MaxBytesReader cap on
// /query bodies.
func TestServerQueryBodyTooLarge(t *testing.T) {
	coll, err := openCollection("", mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{coll: coll, maxBody: 256, logger: discardLogger()}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	big := queryRequest{Query: "count(/descendant::" + strings.Repeat("x", 1024) + ")"}
	resp, _ := rawQuery(t, ts, "/query", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestServerQueryTimeout exercises the -timeout evaluation deadline:
// an effectively unbounded query must be cut off with 504, not pin the
// handler.
func TestServerQueryTimeout(t *testing.T) {
	coll, err := openCollection("", mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{coll: coll, timeout: 50 * time.Millisecond, logger: discardLogger()}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	putHelloDoc(t, ts, "a")

	start := time.Now()
	resp, body := rawQuery(t, ts, "/query", queryRequest{Query: `count(1 to 100000000000)`, Doc: "a"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, body)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}

	// A bare range (no aggregating loop) must be cut off too — the
	// drain itself polls the deadline.
	resp, body = rawQuery(t, ts, "/query", queryRequest{Query: `1 to 100000000000`, Doc: "a"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("bare range: status %d (%s), want 504", resp.StatusCode, body)
	}

	// A timed-out collection fan-out is a 504, not a 200 with per-row
	// error strings. Several documents make the fan-out hand jobs to
	// pool helpers; once it has timed out, every fan-out and pool gauge
	// must be back at zero.
	for _, name := range []string{"b", "c", "d"} {
		putHelloDoc(t, ts, name)
	}
	resp, body = rawQuery(t, ts, "/query", queryRequest{Query: `count(1 to 100000000000)`})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("fan-out: status %d (%s), want 504", resp.StatusCode, body)
	}
	gauges := []string{"mhx_fanout_queue_depth", "mhx_fanout_busy_workers",
		"mhx_pool_busy_workers", "mhx_pool_queued_jobs"}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		m := scrape(t, ts.URL)
		busy := map[string]float64{}
		for _, g := range gauges {
			if v, ok := m[g]; !ok {
				t.Fatalf("/metrics lacks %s", g)
			} else if v != 0 {
				busy[g] = v
			}
		}
		if len(busy) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("gauges nonzero after the timed-out fan-out: %v", busy)
		}
	}

	// Mid-stream expiry ends the NDJSON stream with an error row.
	resp, body = rawQuery(t, ts, "/query?stream=1", queryRequest{Query: `count(1 to 100000000000)`, Doc: "a"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var last streamRow
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Error == "" {
		t.Fatalf("want error row, got %q", body)
	}
}

// TestServerStreamErrorsBeforeBody: errors detectable before any item
// is produced keep their HTTP status in stream mode.
func TestServerStreamErrorsBeforeBody(t *testing.T) {
	ts := newTestServer(t)
	putHelloDoc(t, ts, "a")

	resp, _ := rawQuery(t, ts, "/query?stream=1", queryRequest{Query: `((`, Doc: "a"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad query: status %d, want 400", resp.StatusCode)
	}
	resp, _ = rawQuery(t, ts, "/query?stream=1", queryRequest{Query: `//w`, Doc: "nope"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown doc: status %d, want 404", resp.StatusCode)
	}
}

func TestServerUpdate(t *testing.T) {
	dir := t.TempDir()
	coll, err := openCollection(dir, mhxquery.CollectionOptions{}, true)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{coll: coll, logger: discardLogger()}
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	countDmg := func() string {
		var qr queryResponse
		if code := do(t, http.MethodPost, ts.URL+"/query",
			queryRequest{Query: `count(//dmg)`, Doc: "boethius"}, &qr); code != http.StatusOK {
			t.Fatalf("query: status %d", code)
		}
		return resultOf(qr.Results[0])
	}
	before := countDmg()

	// PATCH /docs/{name} applies an update and reports the new version.
	var ur updateResponse
	if code := do(t, http.MethodPatch, ts.URL+"/docs/boethius",
		updateRequest{Update: `delete node (//dmg)[1]`}, &ur); code != http.StatusOK {
		t.Fatalf("PATCH: status %d", code)
	}
	if ur.Version != 1 || ur.Stats.Edits != 1 || ur.Stats.HierarchiesCopied != 1 {
		t.Fatalf("PATCH response = %+v", ur)
	}
	after := countDmg()
	if before == after {
		t.Fatalf("count(//dmg) unchanged: %s", after)
	}

	// POST /update is the body-addressed form.
	ur = updateResponse{}
	if code := do(t, http.MethodPost, ts.URL+"/update",
		updateRequest{Doc: "boethius", Update: `rename node //dmg as "worm"`}, &ur); code != http.StatusOK {
		t.Fatalf("POST /update: status %d", code)
	}
	if ur.Version != 2 {
		t.Fatalf("version = %d, want 2", ur.Version)
	}

	// Errors: unknown doc is 404, bad expression 400, missing doc 400.
	var er errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/update",
		updateRequest{Doc: "nope", Update: `delete node //w`}, &er); code != http.StatusNotFound {
		t.Fatalf("unknown doc: status %d (%+v)", code, er)
	}
	if code := do(t, http.MethodPatch, ts.URL+"/docs/boethius",
		updateRequest{Update: `rename node`}, &er); code != http.StatusBadRequest {
		t.Fatalf("bad expression: status %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/update",
		updateRequest{Update: `delete node //w`}, &er); code != http.StatusBadRequest {
		t.Fatalf("missing doc: status %d", code)
	}

	// Updated versions are persisted: a fresh server over the same
	// directory sees the renamed hierarchy content.
	ts.Close()
	coll.Close()
	coll2, err := openCollection(dir, mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s2 := &server{coll: coll2, logger: discardLogger()}
	ts2 := httptest.NewServer(s2.routes())
	defer ts2.Close()
	var qr queryResponse
	if code := do(t, http.MethodPost, ts2.URL+"/query",
		queryRequest{Query: `count(//worm)`, Doc: "boethius"}, &qr); code != http.StatusOK {
		t.Fatalf("reopened query: status %d", code)
	}
	if resultOf(qr.Results[0]) != "1" {
		t.Fatalf("reopened count(//worm) = %s", resultOf(qr.Results[0]))
	}
}

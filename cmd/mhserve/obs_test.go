package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"mhxquery"
)

// scrape fetches /metrics and returns the parsed samples: every
// non-comment line as name{labels} -> value. It fails the test on any
// line that does not parse as Prometheus text format.
func scrape(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	// Label values may themselves contain '}' (e.g. route="/docs/{name}"),
	// so the label block is matched greedily.
	sampleRE := regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})? `)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !sampleRE.MatchString(line) {
			t.Fatalf("unparseable metrics line %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:sp]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsEndpoint drives a query burst and checks the scrape:
// catalog coverage, counter monotonicity across scrapes, and the
// histogram invariants (cumulative buckets, +Inf == _count).
func TestMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)

	var qr queryResponse
	for i := 0; i < 3; i++ {
		if code := do(t, http.MethodPost, ts.URL+"/query",
			queryRequest{Query: `count(//w)`, Doc: "hello"}, &qr); code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, code)
		}
	}

	first := scrape(t, ts.URL)
	for _, want := range []string{
		"mhx_query_seconds_count",
		`mhx_cache_requests_total{cache="compile",result="hit"}`,
		"mhx_nameindex_builds_total",
		"mhx_fanout_queue_depth",
		"mhx_update_commit_seconds_count",
		"mhx_documents",
	} {
		if _, ok := first[want]; !ok {
			t.Errorf("scrape missing %s", want)
		}
	}
	for series := range first {
		if strings.Contains(series, `cache="plan"`) {
			t.Errorf("scrape has %s: a query has one plan, so there is no plan cache", series)
		}
	}
	if first["mhx_query_seconds_count"] < 3 {
		t.Errorf("query count = %v, want >= 3", first["mhx_query_seconds_count"])
	}

	// Histogram invariants: buckets are cumulative and +Inf equals the
	// count for every histogram child in the scrape.
	type bucket struct {
		le  float64
		val float64
	}
	hists := map[string][]bucket{}
	leRE := regexp.MustCompile(`^(.*)_bucket\{(?:(.*),)?le="([^"]+)"\}$`)
	for k, v := range first {
		m := leRE.FindStringSubmatch(k)
		if m == nil {
			continue
		}
		le := 0.0
		if m[3] == "+Inf" {
			le = 1e308
		} else {
			le, _ = strconv.ParseFloat(m[3], 64)
		}
		key := m[1] + "{" + m[2] + "}"
		hists[key] = append(hists[key], bucket{le: le, val: v})
	}
	if len(hists) == 0 {
		t.Fatal("no histogram buckets in scrape")
	}
	for name, bs := range hists {
		for i := range bs {
			for j := range bs {
				if bs[i].le < bs[j].le && bs[i].val > bs[j].val {
					t.Errorf("%s: bucket le=%g count %g exceeds le=%g count %g (not cumulative)",
						name, bs[i].le, bs[i].val, bs[j].le, bs[j].val)
				}
			}
		}
	}
	if inf, cnt := first[`mhx_query_seconds_bucket{le="+Inf"}`], first["mhx_query_seconds_count"]; inf != cnt {
		t.Errorf("+Inf bucket %v != count %v", inf, cnt)
	}

	// Monotonicity: another burst strictly grows the counters.
	if code := do(t, http.MethodPost, ts.URL+"/query",
		queryRequest{Query: `count(//w)`, Doc: "hello"}, &qr); code != http.StatusOK {
		t.Fatalf("second burst: status %d", code)
	}
	second := scrape(t, ts.URL)
	if second["mhx_query_seconds_count"] <= first["mhx_query_seconds_count"] {
		t.Errorf("query count did not grow: %v -> %v",
			first["mhx_query_seconds_count"], second["mhx_query_seconds_count"])
	}
	if second[`mhserve_http_requests_total{route="/query",status="200"}`] <=
		first[`mhserve_http_requests_total{route="/query",status="200"}`] {
		t.Errorf("http request counter did not grow")
	}
	for k, v := range first {
		if strings.Contains(k, "_total") || strings.HasSuffix(k, "_count") {
			if second[k] < v {
				t.Errorf("counter %s went backwards: %v -> %v", k, v, second[k])
			}
		}
	}
}

// TestAnalyzeParam checks POST /query?analyze=1: the response plan
// carries observed wall time, and its cardinalities match a static
// EXPLAIN of the same query.
func TestAnalyzeParam(t *testing.T) {
	ts := newTestServer(t)
	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)

	req := queryRequest{Query: `for $w in //w return string($w)`, Doc: "hello"}
	var explained, analyzed queryResponse
	if code := do(t, http.MethodPost, ts.URL+"/query?explain=1", req, &explained); code != http.StatusOK {
		t.Fatalf("explain: status %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/query?analyze=1", req, &analyzed); code != http.StatusOK {
		t.Fatalf("analyze: status %d", code)
	}
	if analyzed.Plan == nil || explained.Plan == nil {
		t.Fatal("missing plan in explain/analyze response")
	}
	if analyzed.Plan.Nanos <= 0 {
		t.Errorf("analyzed root Nanos = %d, want > 0", analyzed.Plan.Nanos)
	}
	if resultOf(analyzed.Results[0]) != resultOf(explained.Results[0]) {
		t.Errorf("results diverge: %q vs %q", resultOf(analyzed.Results[0]), resultOf(explained.Results[0]))
	}
	// Same query, same doc: the analyzed tree's cardinalities must match
	// static EXPLAIN's.
	comparePlans(t, explained.Plan, analyzed.Plan, "")
	// Analyze without a doc, or with stream, is rejected.
	var er errorResponse
	if code := do(t, http.MethodPost, ts.URL+"/query?analyze=1",
		queryRequest{Query: `1`, Collection: "*"}, &er); code != http.StatusBadRequest {
		t.Errorf("analyze without doc: status %d", code)
	}
	if code := do(t, http.MethodPost, ts.URL+"/query?analyze=1&stream=1", req, &er); code != http.StatusBadRequest {
		t.Errorf("analyze+stream: status %d", code)
	}
}

// TestSlowQueryLog checks the -slow-query path end to end: with a
// 1ns threshold every doc query is "slow", and the log line carries the
// trace ID, the query and the analyzed plan.
func TestSlowQueryLog(t *testing.T) {
	var buf syncBuffer
	coll, err := openCollection("", mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s := &server{coll: coll, slow: time.Nanosecond,
		logger: slog.New(slog.NewJSONHandler(&buf, nil))}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	putTestDoc(t, ts.URL, "hello",
		`<r><page>Hello wo</page><page>rld</page></r>`,
		`<r><w>Hello</w> <w>world</w></r>`)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query",
		strings.NewReader(`{"query":"count(//w)","doc":"hello"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Trace-Id", "feedfacecafebeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != "feedfacecafebeef" {
		t.Errorf("trace header not echoed: %q", got)
	}

	var slow map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", line, err)
		}
		if rec["msg"] == "slow query" {
			slow = rec
		}
	}
	if slow == nil {
		t.Fatalf("no slow-query log line in:\n%s", buf.String())
	}
	if slow["trace"] != "feedfacecafebeef" {
		t.Errorf("slow-query trace = %v", slow["trace"])
	}
	if slow["query"] != "count(//w)" || slow["doc"] != "hello" {
		t.Errorf("slow-query identifies %v / %v", slow["doc"], slow["query"])
	}
	plan, ok := slow["plan"].(map[string]any)
	if !ok {
		t.Fatalf("slow-query log has no analyzed plan: %v", slow)
	}
	if op, _ := plan["op"].(string); op != "query" {
		t.Errorf("plan root op = %v", plan["op"])
	}
	if nanos, _ := plan["nanos"].(float64); nanos <= 0 {
		t.Errorf("plan root nanos = %v, want > 0 (analyzed, not static)", plan["nanos"])
	}
}

// TestReadyzDrain checks the readiness flip: 200 while serving, 503
// once draining starts.
func TestReadyzDrain(t *testing.T) {
	ts, s := newTestServerWith(t, 0)
	var body map[string]any
	if code := do(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusOK {
		t.Fatalf("readyz while serving: status %d", code)
	}
	s.draining.Store(true)
	if code := do(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: status %d", code)
	}
	if body["status"] != "draining" {
		t.Errorf("readyz body = %v", body)
	}
	// Liveness is unaffected by draining.
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, &body); code != http.StatusOK {
		t.Fatalf("healthz while draining: status %d", code)
	}
}

// TestReadyzRecovering checks the startup side of readiness: while the
// collection is still opening (WAL replay), /readyz and collection
// endpoints answer 503 and /healthz stays alive; once the collection
// is published everything flips to serving.
func TestReadyzRecovering(t *testing.T) {
	s := &server{logger: discardLogger()} // coll nil: still recovering
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	var body map[string]any
	if code := do(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while recovering: status %d", code)
	}
	if body["status"] != "recovering" {
		t.Errorf("readyz body = %v", body)
	}
	if code := do(t, http.MethodGet, ts.URL+"/docs", nil, &body); code != http.StatusServiceUnavailable {
		t.Fatalf("GET /docs while recovering: status %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, &body); code != http.StatusOK {
		t.Fatalf("healthz while recovering: status %d", code)
	}
	if body["status"] != "recovering" {
		t.Errorf("healthz body = %v", body)
	}

	coll, err := openCollection("", mhxquery.CollectionOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	s.coll = coll
	s.ready.Store(true)
	if code := do(t, http.MethodGet, ts.URL+"/readyz", nil, &body); code != http.StatusOK {
		t.Fatalf("readyz after recovery: status %d", code)
	}
	if code := do(t, http.MethodGet, ts.URL+"/docs", nil, &body); code != http.StatusOK {
		t.Fatalf("GET /docs after recovery: status %d", code)
	}
}

// TestTraceIDGenerated: a request without a trace header gets one
// assigned and echoed.
func TestTraceIDGenerated(t *testing.T) {
	ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Trace-Id"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Errorf("generated trace ID = %q", got)
	}
}

// comparePlans asserts the analyzed plan is the same operator tree,
// with the same observed cardinalities, as the static explain.
func comparePlans(t *testing.T, a, b *mhxquery.PlanOp, path string) {
	t.Helper()
	p := path + "/" + a.Op
	if a.Op != b.Op || a.Detail != b.Detail {
		t.Fatalf("plan shape diverged at %s: %s/%s vs %s/%s", p, a.Op, a.Detail, b.Op, b.Detail)
	}
	if a.Calls != b.Calls || a.InRows != b.InRows || a.OutRows != b.OutRows {
		t.Errorf("cardinalities diverged at %s: explain {%d %d %d} analyze {%d %d %d}",
			p, a.Calls, a.InRows, a.OutRows, b.Calls, b.InRows, b.OutRows)
	}
	if len(a.Children) != len(b.Children) {
		t.Fatalf("child count diverged at %s", p)
	}
	for i := range a.Children {
		comparePlans(t, a.Children[i], b.Children[i], p)
	}
}

// discardLogger silences the request log for tests that build a server
// literal directly.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing logs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

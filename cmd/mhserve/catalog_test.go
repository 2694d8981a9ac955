package main

import (
	"bufio"
	"net/http"
	"os"
	"sort"
	"strings"
	"testing"
)

// readmeCatalog parses the metric catalog table of the repository
// README: the rows under the "| Family | Type | Labels | Meaning |"
// header, as family name -> type.
func readmeCatalog(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	inTable := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "| Family | Type |") {
			inTable = true
			continue
		}
		if !inTable {
			continue
		}
		if !strings.HasPrefix(line, "|") {
			break // the table ends at the first non-row line
		}
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.HasPrefix(strings.TrimSpace(cells[1]), "---") {
			continue
		}
		family := strings.Trim(strings.TrimSpace(cells[1]), "`")
		out[family] = strings.TrimSpace(cells[2])
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("README has no metric catalog table")
	}
	return out
}

// scrapeTypes fetches /metrics and returns its "# TYPE" declarations
// as family name -> type.
func scrapeTypes(t *testing.T, base string) map[string]string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if f := strings.Fields(sc.Text()); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			out[f[2]] = f[3]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReadmeMetricCatalog holds the README metric catalog to the
// registries /metrics serves: every family the collection and HTTP
// registries declare must have a row, every row must name a declared
// family, and the documented type must match the declared one.
func TestReadmeMetricCatalog(t *testing.T) {
	ts := newTestServer(t)
	// The HTTP families are created on the first request they count.
	if code := do(t, http.MethodGet, ts.URL+"/healthz", nil, nil); code != http.StatusOK {
		t.Fatalf("GET /healthz: status %d", code)
	}
	documented := readmeCatalog(t)
	declared := scrapeTypes(t, ts.URL)

	var undocumented, unserved, mistyped []string
	for family, typ := range declared {
		doc, ok := documented[family]
		switch {
		case !ok:
			undocumented = append(undocumented, family)
		case doc != typ:
			mistyped = append(mistyped, family+" (README "+doc+", registry "+typ+")")
		}
	}
	for family := range documented {
		if _, ok := declared[family]; !ok {
			unserved = append(unserved, family)
		}
	}
	sort.Strings(undocumented)
	sort.Strings(unserved)
	sort.Strings(mistyped)
	if len(undocumented) > 0 {
		t.Errorf("families served by /metrics but missing from the README catalog: %s", strings.Join(undocumented, ", "))
	}
	if len(unserved) > 0 {
		t.Errorf("README catalog rows no registry declares: %s", strings.Join(unserved, ", "))
	}
	if len(mistyped) > 0 {
		t.Errorf("README catalog types disagree with the registry: %s", strings.Join(mistyped, ", "))
	}
}

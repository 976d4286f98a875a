package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestDatasetEncodedAtRegistration pins the serving contract of the
// columnar substrate: registering a dataset encodes it exactly once (the
// problem built at registration carries the view) and /v1/datasets
// reports the per-attribute dictionary cardinalities.
func TestDatasetEncodedAtRegistration(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var info struct {
		DictCardinalities map[string]int `json:"dictionary_cardinalities"`
	}
	code := postJSON(t, ts.URL+"/v1/datasets",
		map[string]any{"name": "hosp", "builtin": "hospital"}, &info)
	if code != http.StatusCreated {
		t.Fatalf("register = %d, want 201", code)
	}
	// The hospital example: 2 zips, 9 ages, 2 sexes, 6 diseases.
	want := map[string]int{"Zip": 2, "Age": 9, "Sex": 2, "Disease": 6}
	for attr, n := range want {
		if info.DictCardinalities[attr] != n {
			t.Fatalf("cardinality[%s] = %d, want %d (full: %v)",
				attr, info.DictCardinalities[attr], n, info.DictCardinalities)
		}
	}

	// The GET view reports the same cardinalities (served from the one
	// problem built at registration — nothing re-encodes per request).
	resp, err := http.Get(ts.URL + "/v1/datasets/hosp")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		DictCardinalities map[string]int `json:"dictionary_cardinalities"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.DictCardinalities["Disease"] != 6 {
		t.Fatalf("GET dataset encoded info = %+v, want Disease=6", got)
	}
}

// TestBadLevelsSurfaceAttributeName pins the bugfix's serving surface:
// level maps naming unknown attributes or out-of-range levels come back
// as HTTP 400 with the offending attribute named in the error.
func TestBadLevelsSurfaceAttributeName(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code := postJSON(t, ts.URL+"/v1/datasets",
		map[string]any{"name": "hosp", "builtin": "hospital"}, nil); code != http.StatusCreated {
		t.Fatalf("register = %d, want 201", code)
	}
	cases := []struct {
		name   string
		levels map[string]int
		frag   string
	}{
		{"typo'd attribute", map[string]int{"Zap": 1}, `"Zap"`},
		{"out-of-range level", map[string]int{"Age": 9}, `"Age"`},
		{"negative level", map[string]int{"Zip": -2}, `"Zip"`},
	}
	endpoints := []string{"/v1/disclosure", "/v1/check"}
	for _, tc := range cases {
		for _, ep := range endpoints {
			t.Run(tc.name+ep, func(t *testing.T) {
				req := map[string]any{"dataset": "hosp", "levels": tc.levels, "k": 1}
				if ep == "/v1/check" {
					req["c"] = 0.7
				}
				var body struct {
					Error string `json:"error"`
				}
				code := postJSON(t, ts.URL+ep, req, &body)
				if code != http.StatusBadRequest {
					t.Fatalf("%s levels %v = %d, want 400 (%+v)", ep, tc.levels, code, body)
				}
				if !strings.Contains(body.Error, tc.frag) {
					t.Fatalf("%s error %q does not name %s", ep, body.Error, tc.frag)
				}
			})
		}
	}

	// Inline groups reject level maps outright (they have no schema to
	// generalize), still as a 400.
	var body struct {
		Error string `json:"error"`
	}
	code := postJSON(t, ts.URL+"/v1/check", map[string]any{
		"groups": [][]string{{"flu", "cold"}}, "levels": map[string]int{"Zap": 1},
		"criterion": "k-anonymity", "k": 1,
	}, &body)
	if code != http.StatusBadRequest {
		t.Fatalf("inline groups with levels = %d, want 400", code)
	}
}

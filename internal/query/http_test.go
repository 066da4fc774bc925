package query

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/tstore"
)

func testServer(t *testing.T) (*httptest.Server, *Engine) {
	t.Helper()
	st := fill(tstore.New(), testStates(8, 30))
	eng := NewEngine(NewStoreSource("archive", st))
	ts := httptest.NewServer(NewServer(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

// TestHTTPRoundTripMatchesInProcess pins acceptance criterion 2: for
// every request kind, the /v1/query round-trip produces a Result whose
// JSON encoding is byte-identical to the in-process answer's.
func TestHTTPRoundTripMatchesInProcess(t *testing.T) {
	ts, eng := testServer(t)
	client := NewClient(ts.URL)
	box := Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}
	reqs := []Request{
		{Kind: KindTrajectory, MMSI: 201000003},
		{Kind: KindTrajectory, MMSI: 201000003, From: t0.Add(3 * time.Minute), To: t0.Add(9 * time.Minute)},
		{Kind: KindSpaceTime, Box: &box, From: t0, To: t0.Add(20 * time.Minute)},
		{Kind: KindNearest, Lat: 42.2, Lon: 5.3, At: t0.Add(10 * time.Minute), Tol: Duration(5 * time.Minute), K: 3},
		{Kind: KindLivePicture, Box: &box},
		{Kind: KindSituation, Box: &box, Rows: 6, Cols: 12},
		{Kind: KindAlertHistory},
		{Kind: KindStats},
		{Kind: KindTrack, MMSI: 201000003},
		{Kind: KindPredict, MMSI: 201000003, Horizon: Duration(15 * time.Minute)},
		{Kind: KindQuality, MMSI: 201000003},
		{Kind: KindSpaceTime, Box: &box, Limit: 5},
	}
	for _, req := range reqs {
		t.Run(string(req.Kind), func(t *testing.T) {
			local, err := eng.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			remote, err := client.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			lj, err := json.Marshal(local)
			if err != nil {
				t.Fatal(err)
			}
			rj, err := json.Marshal(remote)
			if err != nil {
				t.Fatal(err)
			}
			if string(lj) != string(rj) {
				t.Fatalf("HTTP round trip diverged:\nlocal:  %s\nremote: %s", lj, rj)
			}
		})
	}
}

// TestHTTPGetRoutesMatchPost pins that the per-kind GET conveniences
// build the same request the canonical POST route executes.
func TestHTTPGetRoutesMatchPost(t *testing.T) {
	ts, eng := testServer(t)
	atStr := t0.Add(10 * time.Minute).UTC().Format(time.RFC3339)
	cases := []struct {
		url string
		req Request
	}{
		{"/v1/trajectory?mmsi=201000003", Request{Kind: KindTrajectory, MMSI: 201000003}},
		{"/v1/spacetime?box=41,4,45,9&to=" + atStr,
			Request{Kind: KindSpaceTime, Box: &Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}, To: t0.Add(10 * time.Minute).UTC()}},
		{"/v1/nearest?point=42.2,5.3&at=" + atStr + "&tol=5m&k=3",
			Request{Kind: KindNearest, Lat: 42.2, Lon: 5.3, At: t0.Add(10 * time.Minute).UTC(), Tol: Duration(5 * time.Minute), K: 3}},
		{"/v1/live?box=41,4,45,9", Request{Kind: KindLivePicture, Box: &Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}}},
		{"/v1/situation?box=41,4,45,9&rows=6&cols=12",
			Request{Kind: KindSituation, Box: &Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}, Rows: 6, Cols: 12}},
		{"/v1/alerts?severity=2", Request{Kind: KindAlertHistory, MinSeverity: 2}},
		{"/v1/stats", Request{Kind: KindStats}},
		{"/v1/track?mmsi=201000003", Request{Kind: KindTrack, MMSI: 201000003}},
		{"/v1/predict?mmsi=201000003&horizon=15m",
			Request{Kind: KindPredict, MMSI: 201000003, Horizon: Duration(15 * time.Minute)}},
		{"/v1/quality?mmsi=201000003", Request{Kind: KindQuality, MMSI: 201000003}},
		{"/v1/anomalies?mmsi=201000003", Request{Kind: KindAnomalies, MMSI: 201000003}},
		{"/v1/anomalies?limit=3", Request{Kind: KindAnomalies, Limit: 3}},
	}
	for _, c := range cases {
		t.Run(c.url, func(t *testing.T) {
			resp, err := http.Get(ts.URL + c.url)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %s — %s", c.url, resp.Status, body)
			}
			want, err := eng.Query(c.req)
			if err != nil {
				t.Fatal(err)
			}
			wj, _ := json.Marshal(want)
			if strings.TrimSpace(string(body)) != string(wj) {
				t.Fatalf("GET %s diverged from POST:\nGET:  %s\nPOST: %s", c.url, body, wj)
			}
		})
	}
}

func TestHTTPErrors(t *testing.T) {
	ts, _ := testServer(t)
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	cases := []struct {
		path       string
		wantStatus int
		wantSubstr string
	}{
		{"/v1/spacetime?box=44,4,42,9", http.StatusBadRequest, "minLat"},
		{"/v1/spacetime?box=42,4,nope,9", http.StatusBadRequest, "not a number"},
		{"/v1/spacetime", http.StatusBadRequest, "requires box"},
		{"/v1/trajectory", http.StatusBadRequest, "requires mmsi"},
		{"/v1/trajectory?mmsi=abc", http.StatusBadRequest, "integer"},
		{"/v1/nearest?point=42.2", http.StatusBadRequest, "lat,lon"},
		{"/v1/nearest", http.StatusBadRequest, "requires point"},
		{"/v1/trajectory?mmsi=-1", http.StatusBadRequest, "unsigned"},
		{"/v1/trajectory?mmsi=4294967297", http.StatusBadRequest, "unsigned"},
		{"/v1/alerts?from=yesterday", http.StatusBadRequest, "RFC 3339"},
		{"/v1/query", http.StatusMethodNotAllowed, "POST"},
	}
	for _, c := range cases {
		status, body := get(c.path)
		if status != c.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", c.path, status, c.wantStatus, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON {error}: %s", c.path, body)
		} else if !strings.Contains(e.Error, c.wantSubstr) {
			t.Errorf("%s: error %q does not mention %q", c.path, e.Error, c.wantSubstr)
		}
	}

	// POST with an invalid body and an unknown kind.
	post := func(body string) (int, string) {
		resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}
	if status, body := post("{"); status != http.StatusBadRequest {
		t.Errorf("truncated body: status %d (%s)", status, body)
	}
	if status, body := post(`{"kind":"bogus"}`); status != http.StatusBadRequest {
		t.Errorf("unknown kind: status %d (%s)", status, body)
	}
	if status, body := post(`{"kind":"stats","nonsense":1}`); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d (%s)", status, body)
	}

	// (0,0) is a legitimate nearest reference point when given explicitly.
	if status, body := get2(ts, "/v1/nearest?point=0,0&k=1"); status != http.StatusOK {
		t.Errorf("nearest at (0,0): status %d (%s)", status, body)
	}
}

func get2(ts *httptest.Server, path string) (int, string) {
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func TestClientErrorsAreDescriptive(t *testing.T) {
	ts, _ := testServer(t)
	client := NewClient(ts.URL)
	_, err := client.Query(Request{Kind: KindSpaceTime})
	if err == nil || !strings.Contains(err.Error(), "requires box") {
		t.Fatalf("client should surface the server's validation error, got %v", err)
	}
}

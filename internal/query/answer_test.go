package query

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tstore"
)

// derivedRequests are the lane-computed request shapes: the per-vessel
// track-intelligence kinds and both forms of the anomalies kind.
func derivedRequests(mmsi uint32) []Request {
	return []Request{
		{Kind: KindTrack, MMSI: mmsi},
		{Kind: KindPredict, MMSI: mmsi, Horizon: Duration(15 * time.Minute)},
		{Kind: KindQuality, MMSI: mmsi},
		{Kind: KindAnomalies, MMSI: mmsi},
		{Kind: KindAnomalies},
	}
}

// TestFederatedDerivedKindsOneExchange pins the federation cost of the
// derived kinds: the peer answers each request in exactly one /v1/query
// exchange, computed peer-side — and a peer that is down costs that one
// exchange too, never a follow-up trajectory fetch (a second timeout).
func TestFederatedDerivedKindsOneExchange(t *testing.T) {
	all := testStates(4, 25)
	remote := fill(tstore.New(), all[:50]) // vessels 1, 2
	local := fill(tstore.New(), all[50:])  // vessels 3, 4
	peerSrv := NewServer(NewEngine(NewStoreSource("peer-archive", remote)))
	var exchanges atomic.Int64
	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/query" {
			exchanges.Add(1)
		}
		if down.Load() {
			// A hung peer: hold the exchange until the caller gives up
			// (the server notices the hang-up once the body is read).
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-time.After(5 * time.Second):
			}
			return
		}
		peerSrv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	peer := NewClient(ts.URL)
	peer.PeerName = "peerA"
	peer.PeerTimeout = 100 * time.Millisecond
	eng := NewEngine(NewStoreSource("local", local), peer)

	for _, state := range []string{"up", "down"} {
		down.Store(state == "down")
		for _, req := range derivedRequests(201000001) {
			exchanges.Store(0)
			res, err := eng.Query(req)
			if err != nil {
				t.Fatalf("peer %s, %s: %v", state, req.Kind, err)
			}
			if n := exchanges.Load(); n != 1 {
				t.Errorf("peer %s, %s (mmsi %d): %d /v1/query exchanges, want 1", state, req.Kind, req.MMSI, n)
			}
			if state == "up" && res.Count == 0 {
				t.Errorf("peer up, %s (mmsi %d): empty answer", req.Kind, req.MMSI)
			}
		}
	}
}

// TestTickerWireFormat pins the /v1/stream encoding of every ticker
// kind: the line's kind string and payload key are the ones older
// clients decode, and nothing else rides along.
func TestTickerWireFormat(t *testing.T) {
	st := fill(tstore.New(), testStates(2, 20))
	eng := NewEngine(NewStoreSource("archive", st))
	ts := httptest.NewServer(NewServer(NewStreamer(NewHub(HubConfig{}), eng)))
	defer ts.Close()
	box := Box{MinLat: 41, MinLon: 4, MaxLat: 45, MaxLon: 9}
	cases := []struct {
		req        Request
		kind, key  string
		wantFields []string
	}{
		{Request{Kind: KindSituation, Box: &box}, "situation", "situation", nil},
		{Request{Kind: KindTrack, MMSI: 201000001}, "track", "track", nil},
		{Request{Kind: KindPredict, MMSI: 201000001, Horizon: Duration(10 * time.Minute)}, "predict", "prediction", nil},
		{Request{Kind: KindQuality, MMSI: 201000001}, "quality", "quality", nil},
		{Request{Kind: KindAnomalies, MMSI: 201000001}, "anomalies", "anomalies", []string{"vessel"}},
		{Request{Kind: KindAnomalies}, "anomalies", "anomalies", []string{"ranked"}},
	}
	for _, c := range cases {
		t.Run(c.kind+"/"+strings.Join(c.wantFields, ","), func(t *testing.T) {
			body, _ := json.Marshal(StreamRequest{Request: c.req, Tick: Duration(10 * time.Millisecond)})
			resp, err := http.Post(ts.URL+"/v1/stream", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			br := bufio.NewReader(resp.Body)
			var line map[string]any
			for {
				raw, err := br.ReadBytes('\n')
				if err != nil {
					t.Fatalf("stream ended before a tick: %v", err)
				}
				line = nil
				if err := json.Unmarshal(raw, &line); err != nil {
					t.Fatal(err)
				}
				if line["kind"] != "heartbeat" {
					break
				}
			}
			keys := make([]string, 0, len(line))
			for k := range line {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			want := []string{"kind", "seq", c.key}
			sort.Strings(want)
			if strings.Join(keys, ",") != strings.Join(want, ",") {
				t.Fatalf("tick keys %v, want %v", keys, want)
			}
			if line["kind"] != c.kind {
				t.Fatalf("tick kind %v, want %q", line["kind"], c.kind)
			}
			payload, ok := line[c.key].(map[string]any)
			if !ok {
				t.Fatalf("tick payload %q is %T, want an object", c.key, line[c.key])
			}
			for _, f := range c.wantFields {
				if _, ok := payload[f]; !ok {
					t.Fatalf("tick payload %q lacks %q: %v", c.key, f, payload)
				}
			}
		})
	}
}

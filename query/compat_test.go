// Golden compatibility tests for the API versioning: legacy unversioned
// paths must keep serving byte-identical payloads (now with a
// Deprecation header), /v1 must serve the same successful payloads with
// the structured error envelope and strict parameter validation.
package query

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/flow"
	"repro/recordstore"
)

// getRaw fetches path and returns the status, headers and exact body.
func getRaw(t *testing.T, srv *httptest.Server, path string) (int, http.Header, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(body)
}

// compatServer serves every endpoint family from deterministic fixtures.
func compatServer(t *testing.T) *httptest.Server {
	t.Helper()
	tk := liveTracker(t)
	srv := httptest.NewServer(NewHandler(Config{
		TopK:    tk,
		Store:   FileStore(testStore(t)),
		Netwide: []NamedSource{{Name: "sw1", Source: tk}},
		Alerts:  testDetector(t),
	}))
	t.Cleanup(srv.Close)
	return srv
}

// TestLegacyGoldenBytes pins the exact legacy response bytes of the
// store-backed endpoints. These strings are the frozen v0 contract: a
// diff here is a breaking change for unversioned clients, not a test to
// update casually.
func TestLegacyGoldenBytes(t *testing.T) {
	srv := compatServer(t)

	goldens := map[string]string{
		"/epochs": `{
  "epochs": [
    {
      "index": 0,
      "time": "2023-11-14T22:13:20.000Z",
      "records": 2
    },
    {
      "index": 1,
      "time": "2023-11-14T22:18:20.000Z",
      "records": 1
    },
    {
      "index": 2,
      "time": "2023-11-14T22:23:20.000Z",
      "records": 1
    }
  ],
  "truncated": false
}
`,
		"/flows?epoch=1": `{
  "epochs_scanned": 1,
  "matched": 1,
  "limited": false,
  "flows": [
    {
      "epoch": 1,
      "src": "10.0.0.3",
      "sport": 0,
      "dst": "10.0.0.100",
      "dport": 53,
      "proto": 17,
      "packets": 7
    }
  ]
}
`,
		"/topk?k=1": `{
  "k": 1,
  "flows": [
    {
      "src": "10.0.0.1",
      "sport": 0,
      "dst": "0.0.0.0",
      "dport": 443,
      "proto": 6,
      "packets": 500
    }
  ]
}
`,
		"/flows?epoch=99": `{
  "error": "epoch 99 out of range [0,3)"
}
`,
	}
	for path, want := range goldens {
		_, hdr, body := getRaw(t, srv, path)
		if body != want {
			t.Errorf("GET %s body diverged from golden:\ngot:  %q\nwant: %q", path, body, want)
		}
		if hdr.Get("Deprecation") != "true" {
			t.Errorf("GET %s missing Deprecation header", path)
		}
		if link := hdr.Get("Link"); !strings.Contains(link, "/v1/") || !strings.Contains(link, "successor-version") {
			t.Errorf("GET %s Link header = %q", path, link)
		}
	}
}

// TestV1PayloadParity: every endpoint's successful /v1 payload is
// byte-identical to its legacy payload — only error shapes and
// strictness differ between the surfaces.
func TestV1PayloadParity(t *testing.T) {
	srv := compatServer(t)
	paths := []string{
		"/topk?k=2",
		"/epochs",
		"/flows?filter=proto%3D17",
		"/flows?from=1700000300&to=1700000600",
		"/netwide/topk?k=2",
		"/alerts",
		"/alerts?kind=superspreader",
		"/changes?k=5",
		"/trace/epochs", // 404s identically: no tracer configured
	}
	for _, path := range paths {
		legacyStatus, legacyHdr, legacyBody := getRaw(t, srv, path)
		v1Status, v1Hdr, v1Body := getRaw(t, srv, "/v1"+path)
		if legacyStatus != v1Status {
			t.Errorf("GET %s: legacy %d vs v1 %d", path, legacyStatus, v1Status)
		}
		if legacyStatus == http.StatusOK && legacyBody != v1Body {
			t.Errorf("GET %s: payloads diverge between surfaces:\nlegacy: %q\nv1:     %q", path, legacyBody, v1Body)
		}
		if v1Hdr.Get("Deprecation") != "" {
			t.Errorf("GET /v1%s carries a Deprecation header", path)
		}
		if legacyHdr.Get("Deprecation") != "true" {
			t.Errorf("GET %s lacks the Deprecation header", path)
		}
	}
}

// TestV1ErrorEnvelope: /v1 errors use {"error":{"code","message"}} while
// the same failures on legacy paths keep the bare-string shape.
func TestV1ErrorEnvelope(t *testing.T) {
	srv := compatServer(t)

	type envelope struct {
		Error ErrorBody `json:"error"`
	}
	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/flows?epoch=99", http.StatusBadRequest, "bad_request"},
		{"/v1/flows?bogus=1", http.StatusBadRequest, "bad_request"},
		{"/v1/events", http.StatusNotFound, "not_found"},
		{"/v1/trace/epochs", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		var env envelope
		if code := get(t, srv, tc.path, &env); code != tc.status {
			t.Errorf("GET %s status %d, want %d", tc.path, code, tc.status)
		}
		if env.Error.Code != tc.code || env.Error.Message == "" {
			t.Errorf("GET %s envelope = %+v, want code %q", tc.path, env.Error, tc.code)
		}
	}

	// Same failure, legacy shape: a bare string, no envelope.
	_, _, body := getRaw(t, srv, "/flows?epoch=99")
	if strings.Contains(body, `"code"`) {
		t.Errorf("legacy error grew an envelope: %q", body)
	}
	if !strings.Contains(body, `"error": "epoch 99 out of range`) {
		t.Errorf("legacy error shape changed: %q", body)
	}
}

// TestStrictParams: /v1 rejects parameters the endpoint does not use;
// legacy keeps accepting them unless strict=1 opts in.
func TestStrictParams(t *testing.T) {
	srv := compatServer(t)

	// epoch= is meaningful on /flows but not /topk. Legacy /topk has
	// always silently accepted it — frozen behavior.
	if status, _, _ := getRaw(t, srv, "/topk?k=1&epoch=1"); status != http.StatusOK {
		t.Errorf("legacy lenient /topk?epoch= status %d", status)
	}
	// strict=1 opts the legacy path into the /v1 vocabulary check.
	if status, _, body := getRaw(t, srv, "/topk?k=1&epoch=1&strict=1"); status != http.StatusBadRequest {
		t.Errorf("legacy strict /topk?epoch= status %d body %q", status, body)
	}
	// /v1 is always strict.
	if status, _, _ := getRaw(t, srv, "/v1/topk?k=1&epoch=1"); status != http.StatusBadRequest {
		t.Errorf("/v1/topk?epoch= not rejected")
	}
	if status, _, _ := getRaw(t, srv, "/v1/topk?k=1&filter=proto%3D6"); status != http.StatusOK {
		t.Errorf("/v1/topk with applicable params rejected")
	}
	// strict itself is accepted (and redundant) on /v1.
	if status, _, _ := getRaw(t, srv, "/v1/topk?k=1&strict=1"); status != http.StatusOK {
		t.Errorf("/v1/topk?strict=1 rejected")
	}
	// Unknown keys still fail everywhere, as they always have.
	if status, _, _ := getRaw(t, srv, "/topk?bogus=1"); status != http.StatusBadRequest {
		t.Errorf("legacy unknown key accepted")
	}
}

// TestTieredStoreThroughHandler: the HTTP surface serves a tiered
// directory transparently — tier labels on /v1/epochs, time-ranged
// /v1/flows answered from cold segments.
func TestTieredStoreThroughHandler(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := recordstore.OpenTiered(dir, recordstore.TieredOptions{HotEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for e := 0; e < 8; e++ {
		recs := []flow.Record{
			{Key: flow.Key{SrcIP: 0x0A000001, DstIP: 0x0A000063, DstPort: 443, Proto: 6}, Count: uint32(100 + e)},
		}
		if err := tw.WriteEpoch(base.Add(time.Duration(e)*time.Minute), recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(NewHandler(Config{Store: FileStore(dir)}))
	defer srv.Close()

	var eps EpochsResponse
	if code := get(t, srv, "/v1/epochs", &eps); code != http.StatusOK {
		t.Fatalf("epochs status %d", code)
	}
	if len(eps.Epochs) != 8 {
		t.Fatalf("tiered /epochs lists %d", len(eps.Epochs))
	}
	if eps.Epochs[0].Tier != "cold" || eps.Epochs[7].Tier != "" {
		t.Fatalf("tier labels: first %q last %q", eps.Epochs[0].Tier, eps.Epochs[7].Tier)
	}

	var flows FlowsResponse
	path := "/v1/flows?from=1700000060&to=1700000180"
	if code := get(t, srv, path, &flows); code != http.StatusOK {
		t.Fatalf("flows status %d", code)
	}
	if flows.EpochsScanned != 2 || flows.Matched != 2 {
		t.Fatalf("time-ranged flows = %+v", flows)
	}
	if flows.Flows[0].Packets != 101 || flows.Flows[1].Packets != 102 {
		t.Fatalf("cold flows payload = %+v", flows.Flows)
	}

	// limit= on /v1/epochs cuts the listing and says so.
	if code := get(t, srv, "/v1/epochs?limit=3", &eps); code != http.StatusOK {
		t.Fatal("epochs limit status")
	}
	if len(eps.Epochs) != 3 || !eps.Limited {
		t.Fatalf("limited epochs = %d limited=%v", len(eps.Epochs), eps.Limited)
	}
}

// postFilter serves AppendEpochMatching by decoding the whole epoch and
// filtering afterwards: the reference the store-side pushdown must equal.
type postFilter struct{ recordstore.EpochSource }

func (p postFilter) AppendEpochMatching(i int, f recordstore.Filter, dst []flow.Record) (recordstore.Epoch, error) {
	ep, err := p.AppendEpochAt(i, nil)
	if err != nil {
		return recordstore.Epoch{}, err
	}
	ep.Records = append(dst, f.Apply(ep.Records)...)
	return ep, nil
}

// TestFlowsPushdownBodies: /v1/flows and legacy /flows over a tiered
// store whose cold epochs are cut into pieces answer byte-identically
// to decoding every epoch and filtering afterwards — counts, limits
// and payloads alike.
func TestFlowsPushdownBodies(t *testing.T) {
	dir := t.TempDir()
	tw, _, err := recordstore.OpenTiered(dir, recordstore.TieredOptions{HotEpochs: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for e := 0; e < 5; e++ {
		recs := make([]flow.Record, 0, 20000)
		for i := 0; i < 20000; i++ {
			recs = append(recs, flow.Record{
				Key:   flow.Key{SrcIP: uint32(0x0A000000 + (i%150)*509), DstIP: uint32(0xC0A80000 + i), DstPort: uint16(80 + i%3), Proto: 6},
				Count: uint32(1 + (i+e)%61),
			})
		}
		if err := tw.WriteEpoch(base.Add(time.Duration(e)*time.Minute), recs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tw.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	pushed := httptest.NewServer(NewHandler(Config{Store: FileStore(dir)}))
	defer pushed.Close()
	ref := httptest.NewServer(NewHandler(Config{Store: func() (recordstore.EpochSource, func() error, error) {
		src, err := recordstore.Open(dir)
		if err != nil {
			return nil, nil, err
		}
		return postFilter{src}, src.Close, nil
	}}))
	defer ref.Close()

	for _, path := range []string{
		"/v1/flows?epoch=0&filter=src%3D10.0.1.253",
		"/v1/flows?from=1700000000&to=1700000180&filter=src%3D10.0.1.253",
		"/v1/flows?epoch=1&filter=src%3D10.0.1.254",
		"/v1/flows?epoch=2&filter=src%3D10.0.1.253%2Cdport%3D81",
		"/v1/flows?epoch=0&filter=dst%3D192.168.0.7",
		"/v1/flows?epoch=1&filter=minpkts%3D60&limit=50",
		"/v1/flows?limit=3",
		"/flows?filter=src%3D10.0.1.253&limit=500",
	} {
		wantStatus, _, want := getRaw(t, ref, path)
		gotStatus, _, got := getRaw(t, pushed, path)
		if gotStatus != http.StatusOK || gotStatus != wantStatus || got != want {
			t.Errorf("%s: status %d body %d bytes, want status %d body %d bytes (identical)", path, gotStatus, len(got), wantStatus, len(want))
		}
	}
}

// Package query is the read path of the collection pipeline: an HTTP/JSON
// surface answering live and historical flow questions without touching
// the ingest hot path.
//
// Nine endpoints:
//
//	GET /topk?k=10                  largest flows right now, from the live
//	                                top-k tracker — no epoch dump involved
//	GET /epochs                     stored epoch listing (index, time, size)
//	GET /flows?filter=...&limit=    filtered historical records from the
//	                                mmap-backed store, by epoch or time range
//	GET /netwide/topk?k=10          top-k over the merged network-wide view
//	                                of every registered vantage point
//	GET /alerts?kind=...&severity=  recent detection alerts (heavy change,
//	                                forecast, superspreader, victim fan-in,
//	                                anomaly) from the ring
//	GET /changes?k=10&epoch=        per-epoch heavy-change top-k lists
//	GET /netwide/alerts?severity=   cross-vantage correlated alerts with
//	                                per-vantage evidence
//	GET /events?kind=&severity=     live SSE stream of structured pipeline
//	                                events (epoch spans, alerts, recovery,
//	                                degradation), resumable via Last-Event-ID
//	GET /trace/epochs?limit=        the last K epoch timelines with
//	                                per-stage drain durations
//
// The live side reads an online summary (topk.Tracker / topk.Set via the
// TopKSource surface) that ingest maintains incrementally; the historical
// side random-accesses a recordstore.EpochSource — a flat mmap store or a
// tiered directory with compressed cold segments, transparently. Both are
// query-time-only costs: ingestion never blocks on a query.
//
// Every endpoint is served twice: under its legacy unversioned path
// (payloads frozen byte-for-byte, plus a Deprecation header) and under
// /v1/ (structured {"error":{"code","message"}} envelope, strict
// parameter validation). New clients use /v1; see API.md.
package query

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sync"
	"time"

	"repro/flow"
	"repro/netwide"
	"repro/recordstore"
	"repro/telemetry"
	"repro/telemetry/events"
)

// TopKSource serves live top-k snapshots; topk.Tracker and topk.Set
// implement it.
type TopKSource interface {
	AppendTopK(dst []flow.Record, k int) []flow.Record
}

// SortedSource yields a key-sorted snapshot of a vantage point's current
// flows — the netwide.View order MergeSumInto consumes. topk.Tracker and
// topk.Set implement it.
type SortedSource interface {
	AppendSorted(dst []flow.Record) []flow.Record
}

// NamedSource labels a vantage point for the network-wide merge.
type NamedSource struct {
	Name   string
	Source SortedSource
}

// StoreOpener yields the historical store for one request plus a release
// function. StaticStore shares one long-lived source; FileStore re-opens
// per request so a store still being written is always seen current.
type StoreOpener func() (recordstore.EpochSource, func() error, error)

// StaticStore serves every request from one long-lived source.
func StaticStore(src recordstore.EpochSource) StoreOpener {
	return func() (recordstore.EpochSource, func() error, error) {
		return src, func() error { return nil }, nil
	}
}

// FileStore opens the store at path fresh per request — the mode a
// collector's live, still-growing store needs. recordstore.Open
// auto-detects flat files and tiered directories; the flat open
// tolerates the truncated final frame a live file usually has.
func FileStore(path string) StoreOpener {
	return func() (recordstore.EpochSource, func() error, error) {
		src, err := recordstore.Open(path)
		if err != nil {
			return nil, nil, err
		}
		return src, src.Close, nil
	}
}

// Config wires the handler's sources; any nil source turns its endpoints
// into 404s.
type Config struct {
	// TopK serves /topk.
	TopK TopKSource
	// Store serves /epochs and /flows.
	Store StoreOpener
	// Netwide serves /netwide/topk.
	Netwide []NamedSource
	// NetwideVersion, when non-nil, reports a version of the netwide
	// sources' contents (typically the epochs-ingested count): responses
	// of /netwide/topk are then memoized per (version, k, filter), so
	// dashboard-rate polling between rotations stops re-snapshotting and
	// re-merging every source, and a rotation (version change) empties
	// the cache. Nil disables caching — every request recomputes.
	NetwideVersion func() uint64
	// Alerts serves /alerts and /changes.
	Alerts AlertSource
	// NetwideAlerts serves /netwide/alerts (the cross-vantage
	// correlator's promotions with per-vantage evidence).
	NetwideAlerts NetwideAlertSource
	// Events serves /events: the daemon's pipeline event bus streamed as
	// SSE, resumable via Last-Event-ID.
	Events *events.Bus
	// Trace serves /trace/epochs: the last K epoch stage timelines.
	Trace *events.Tracer
	// EventHeartbeat overrides the SSE keep-alive ping interval
	// (DefaultEventHeartbeat if zero); tests shrink it.
	EventHeartbeat time.Duration
	// Registry, when non-nil, wraps the handler with per-endpoint access
	// instrumentation (http_requests_total / http_request_ns by mux
	// pattern).
	Registry *telemetry.Registry
}

// FlowJSON is one flow record on the wire.
type FlowJSON struct {
	Epoch   int    `json:"epoch,omitempty"`
	Src     string `json:"src"`
	Sport   uint16 `json:"sport"`
	Dst     string `json:"dst"`
	Dport   uint16 `json:"dport"`
	Proto   uint8  `json:"proto"`
	Packets uint32 `json:"packets"`
}

// TopKResponse is the /topk and /netwide/topk payload. Cached marks a
// /netwide/topk response served from the per-epoch memo.
type TopKResponse struct {
	K       int        `json:"k"`
	Sources []string   `json:"sources,omitempty"`
	Flows   []FlowJSON `json:"flows"`
	Cached  bool       `json:"cached,omitempty"`
}

// EpochJSON is one epoch in the /epochs listing. The tier fields only
// appear for epochs outside the hot tier, so flat-store listings render
// exactly as they always have.
type EpochJSON struct {
	Index   int    `json:"index"`
	Time    string `json:"time"`
	Records int    `json:"records"`
	// Tier is "cold" or "rollup" for migrated epochs; omitted for hot.
	Tier string `json:"tier,omitempty"`
	// Span / TotalRecords / TotalPackets describe what a rollup epoch
	// folds together; omitted outside rollups.
	Span         int    `json:"span,omitempty"`
	TotalRecords uint64 `json:"total_records,omitempty"`
	TotalPackets uint64 `json:"total_packets,omitempty"`
}

// EpochsResponse is the /epochs payload.
type EpochsResponse struct {
	Epochs    []EpochJSON `json:"epochs"`
	Truncated bool        `json:"truncated"`
	// Limited reports that an explicit limit= cut the listing short.
	Limited bool `json:"limited,omitempty"`
}

// FlowsResponse is the /flows payload.
type FlowsResponse struct {
	EpochsScanned int        `json:"epochs_scanned"`
	Matched       int        `json:"matched"`
	Limited       bool       `json:"limited"`
	Flows         []FlowJSON `json:"flows"`
	// RollupEpochs counts scanned epochs that are downsampled rollups —
	// a caller's signal that tail flows in that range were dropped by
	// retention. Omitted when the scan touched none.
	RollupEpochs int `json:"rollup_epochs,omitempty"`
}

// ErrorResponse is the legacy error payload: a bare string. The /v1
// surface wraps errors in ErrorEnvelope instead.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ErrorEnvelope is the /v1 error payload: {"error":{"code","message"}}.
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the structured error of the /v1 surface.
type ErrorBody struct {
	// Code is a stable machine-readable identifier (bad_request,
	// not_found, method_not_allowed, unavailable, internal).
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// apiVersion selects the response conventions of one registered path:
// the frozen legacy surface or /v1.
type apiVersion int

const (
	apiLegacy apiVersion = iota
	apiV1
)

// Per-endpoint parameter vocabularies, enforced on /v1 (always) and on
// legacy paths under strict=1. The legacy default keeps accepting any
// globally-known parameter for compatibility, even where it has no
// effect.
var (
	topkParams   = []string{"k", "filter"}
	epochsParams = []string{"from", "to", "limit"}
	flowsParams  = []string{"filter", "epoch", "limit", "from", "to"}
	changeParams = []string{"k", "epoch", "limit", "filter"}
	alertParams  = []string{"kind", "severity", "epoch", "limit", "filter"}
	eventParams  = []string{"kind", "severity", "vantage", "after"}
	traceParams  = []string{"vantage", "limit"}
)

// NewHandler builds the HTTP handler serving cfg's sources. Every
// endpoint is registered under its legacy unversioned path and under
// /v1/; the legacy registration stamps Deprecation and successor-version
// Link headers on every response.
func NewHandler(cfg Config) http.Handler {
	h := &handler{cfg: cfg}
	mux := http.NewServeMux()
	register := func(path string, fn func(http.ResponseWriter, *http.Request, apiVersion)) {
		successor := `</v1` + path + `>; rel="successor-version"`
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Deprecation", "true")
			w.Header().Set("Link", successor)
			fn(w, r, apiLegacy)
		})
		mux.HandleFunc("/v1"+path, func(w http.ResponseWriter, r *http.Request) {
			fn(w, r, apiV1)
		})
	}
	register("/topk", h.topK)
	register("/epochs", h.epochs)
	register("/flows", h.flows)
	register("/netwide/topk", h.netwideTopK)
	register("/netwide/alerts", h.netwideAlerts)
	register("/alerts", h.alerts)
	register("/changes", h.changes)
	register("/events", h.events)
	register("/trace/epochs", h.traceEpochs)
	if cfg.Registry != nil {
		return telemetry.InstrumentMux(cfg.Registry, mux)
	}
	return mux
}

// maxNetwideCacheEntries bounds the /netwide/topk memo per version; a
// polling workload has a handful of distinct (k, filter) shapes, so an
// overflowing cache simply stops admitting until the next rotation.
const maxNetwideCacheEntries = 128

// nwKey identifies one memoized /netwide/topk response shape.
type nwKey struct {
	k      int
	filter string
}

type handler struct {
	cfg Config

	// nw memoizes /netwide/topk per (version, k, filter); see
	// Config.NetwideVersion.
	nw struct {
		mu      sync.Mutex
		version uint64
		entries map[nwKey]*TopKResponse
	}
}

// writeJSON marshals v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the only failure mode left
}

// writeError renders err in the version's error shape: the legacy bare
// {"error": "..."} string or the /v1 {"error":{"code","message"}}
// envelope.
func writeError(w http.ResponseWriter, v apiVersion, status int, err error) {
	if v == apiV1 {
		writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{
			Code:    errorCode(status),
			Message: err.Error(),
		}})
		return
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// errorCode maps an HTTP status to the /v1 stable error code.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusMethodNotAllowed:
		return "method_not_allowed"
	case http.StatusServiceUnavailable:
		return "unavailable"
	default:
		return "internal"
	}
}

// checkStrict rejects parameters outside the endpoint's vocabulary when
// the request is strict: always on /v1, opt-in via strict=1 on legacy
// paths (whose lenient default — accepting any globally-known parameter,
// effective or not — is frozen for compatibility).
func checkStrict(v apiVersion, q url.Values, allowed []string) error {
	if v != apiV1 && q.Get("strict") != "1" {
		return nil
	}
	for key := range q {
		if key == "strict" || slices.Contains(allowed, key) {
			continue
		}
		return fmt.Errorf("query: parameter %q is not accepted by this endpoint", key)
	}
	return nil
}

// decode enforces GET, strictness, and parses parameters.
func decode(w http.ResponseWriter, r *http.Request, v apiVersion, allowed []string) (Params, bool) {
	if r.Method != http.MethodGet {
		writeError(w, v, http.StatusMethodNotAllowed, errors.New("GET only"))
		return Params{}, false
	}
	q := r.URL.Query()
	if err := checkStrict(v, q, allowed); err != nil {
		writeError(w, v, http.StatusBadRequest, err)
		return Params{}, false
	}
	p, err := ParseParams(q)
	if err != nil {
		writeError(w, v, http.StatusBadRequest, err)
		return Params{}, false
	}
	return p, true
}

// recordJSON converts a record for the wire.
func recordJSON(epoch int, r flow.Record) FlowJSON {
	return FlowJSON{
		Epoch:   epoch,
		Src:     flow.IPString(r.Key.SrcIP),
		Sport:   r.Key.SrcPort,
		Dst:     flow.IPString(r.Key.DstIP),
		Dport:   r.Key.DstPort,
		Proto:   r.Key.Proto,
		Packets: r.Count,
	}
}

func (h *handler) topK(w http.ResponseWriter, r *http.Request, v apiVersion) {
	p, ok := decode(w, r, v, topkParams)
	if !ok {
		return
	}
	if h.cfg.TopK == nil {
		writeError(w, v, http.StatusNotFound, errors.New("no live top-k source configured"))
		return
	}
	// With a filter, the top k *matching* flows are wanted, which may sit
	// below the global top k: take the full snapshot (AppendTopK clamps an
	// oversized k) and cut to k after filtering.
	snapK := p.K
	if p.Filter != (recordstore.Filter{}) {
		snapK = 1 << 30
	}
	recs := h.cfg.TopK.AppendTopK(nil, snapK)
	resp := TopKResponse{K: p.K, Flows: make([]FlowJSON, 0, p.K)}
	for _, rec := range recs {
		if !p.Filter.Match(rec) {
			continue
		}
		resp.Flows = append(resp.Flows, recordJSON(0, rec))
		if len(resp.Flows) == p.K {
			break
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) netwideTopK(w http.ResponseWriter, r *http.Request, v apiVersion) {
	p, ok := decode(w, r, v, topkParams)
	if !ok {
		return
	}
	if len(h.cfg.Netwide) == 0 {
		writeError(w, v, http.StatusNotFound, errors.New("no netwide sources configured"))
		return
	}

	// With a version source, serve repeats of the same request shape from
	// the memo until the sources' contents change.
	var (
		cacheKey nwKey
		version  uint64
		caching  = h.cfg.NetwideVersion != nil
	)
	if caching {
		cacheKey = nwKey{k: p.K, filter: p.Filter.String()}
		version = h.cfg.NetwideVersion()
		h.nw.mu.Lock()
		if h.nw.entries == nil || h.nw.version != version {
			h.nw.entries = make(map[nwKey]*TopKResponse)
			h.nw.version = version
		}
		if cached, hit := h.nw.entries[cacheKey]; hit {
			resp := *cached
			resp.Cached = true
			h.nw.mu.Unlock()
			writeJSON(w, http.StatusOK, resp)
			return
		}
		h.nw.mu.Unlock()
	}

	views := make([]netwide.View, len(h.cfg.Netwide))
	names := make([]string, len(h.cfg.Netwide))
	for i, s := range h.cfg.Netwide {
		views[i] = netwide.View{Name: s.Name, Records: s.Source.AppendSorted(nil)}
		names[i] = s.Name
	}
	merged := netwide.MergeSumInto(nil, views...)
	// Filter before selecting k, so a filtered query surfaces the top
	// matching flows rather than the matching subset of the global top k.
	kept := merged[:0]
	for _, rec := range merged {
		if p.Filter.Match(rec) {
			kept = append(kept, rec)
		}
	}
	topK := selectTopK(kept, p.K)
	resp := TopKResponse{K: p.K, Sources: names, Flows: make([]FlowJSON, 0, len(topK))}
	for _, rec := range topK {
		resp.Flows = append(resp.Flows, recordJSON(0, rec))
	}
	if caching {
		h.nw.mu.Lock()
		// Only admit while the version still matches: a rotation during
		// the merge would otherwise pin a stale response for the new
		// version's lifetime.
		if h.nw.version == version && len(h.nw.entries) < maxNetwideCacheEntries {
			stored := resp
			h.nw.entries[cacheKey] = &stored
		}
		h.nw.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) epochs(w http.ResponseWriter, r *http.Request, v apiVersion) {
	p, ok := decode(w, r, v, epochsParams)
	if !ok {
		return
	}
	src, release, ok := h.openStore(w, v)
	if !ok {
		return
	}
	defer release()

	lo, hi := 0, src.Epochs()
	if !p.From.IsZero() || !p.To.IsZero() {
		lo, hi = src.Range(p.From, p.To)
	}
	// The limit only bites when given explicitly: the legacy contract is
	// "list everything" and stays that way without a limit=.
	limited := false
	if r.URL.Query().Has("limit") && hi-lo > p.Limit {
		hi = lo + p.Limit
		limited = true
	}

	info, _ := src.(recordstore.InfoSource)
	resp := EpochsResponse{Epochs: make([]EpochJSON, 0, hi-lo), Limited: limited}
	if ts, ok := src.(recordstore.TruncatedSource); ok {
		resp.Truncated = ts.Truncated()
	}
	for i := lo; i < hi; i++ {
		ej := EpochJSON{
			Index:   i,
			Time:    src.EpochTime(i).Format(timeFormat),
			Records: src.EpochLen(i),
		}
		if info != nil {
			if ei := info.EpochInfo(i); ei.Tier != "" && ei.Tier != "hot" {
				ej.Tier = ei.Tier
				if ei.Span > 1 {
					ej.Span = ei.Span
					ej.TotalRecords = ei.TotalRecords
					ej.TotalPackets = ei.TotalPackets
				}
			}
		}
		resp.Epochs = append(resp.Epochs, ej)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (h *handler) flows(w http.ResponseWriter, r *http.Request, v apiVersion) {
	p, ok := decode(w, r, v, flowsParams)
	if !ok {
		return
	}
	src, release, ok := h.openStore(w, v)
	if !ok {
		return
	}
	defer release()

	lo, hi, err := recordstore.SourceRange(src, p.Epoch, p.From, p.To)
	if err != nil {
		writeError(w, v, http.StatusBadRequest, err)
		return
	}
	info, _ := src.(recordstore.InfoSource)

	resp := FlowsResponse{}
	var buf []flow.Record
	for i := lo; i < hi && !resp.Limited; i++ {
		// The store filters during decode: ep holds only matching records.
		ep, err := src.AppendEpochMatching(i, p.Filter, buf[:0])
		if err != nil {
			writeError(w, v, http.StatusInternalServerError, err)
			return
		}
		buf = ep.Records
		resp.EpochsScanned++
		if info != nil && info.EpochInfo(i).Tier == "rollup" {
			resp.RollupEpochs++
		}
		for _, rec := range ep.Records {
			resp.Matched++
			if len(resp.Flows) >= p.Limit {
				resp.Limited = true
				break
			}
			resp.Flows = append(resp.Flows, recordJSON(i, rec))
		}
	}
	if resp.Flows == nil {
		resp.Flows = []FlowJSON{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// openStore resolves the request's store; on failure the response is
// already written and ok is false.
func (h *handler) openStore(w http.ResponseWriter, v apiVersion) (src recordstore.EpochSource, release func() error, ok bool) {
	if h.cfg.Store == nil {
		writeError(w, v, http.StatusNotFound, errors.New("no store configured"))
		return nil, nil, false
	}
	src, release, err := h.cfg.Store()
	if err != nil {
		writeError(w, v, http.StatusServiceUnavailable, err)
		return nil, nil, false
	}
	return src, release, true
}

// selectTopK reorders recs by count descending (key tiebreak) in place
// and returns the first k.
func selectTopK(recs []flow.Record, k int) []flow.Record {
	slices.SortFunc(recs, flow.CompareByCount)
	if k < len(recs) {
		recs = recs[:k]
	}
	return recs
}

// timeFormat is the epoch timestamp rendering, matching the flowquery CLI.
const timeFormat = "2006-01-02T15:04:05.000Z07:00"

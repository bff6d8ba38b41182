package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"sync"
	"time"

	"repro/flow"
	"repro/query"
	"repro/recordstore"
)

// The request kinds of the mix.
const (
	reqTopK = iota
	reqEpochs
	reqFlowsHot
	reqFlowsCold
	numReqKinds
)

var reqNames = [numReqKinds]string{"topk", "epochs", "flows_hot", "flows_cold"}

// deck is the fixed mix: each client deals a seeded shuffle of it per
// round. The shares put the mix's median at the median of top-k (half the
// mix is cheaper /v1/epochs or cheaper top-k) and its 95th percentile in
// the body of the cold-range latencies, rather than on a step between
// two kinds, where a percentile would jump from run to run.
var deck = [...]int{reqEpochs, reqEpochs, reqTopK, reqTopK, reqFlowsHot, reqFlowsCold}

// clients is the number of closed-loop HTTP clients, one keep-alive
// connection each.
const clients = 2

// coldSpan is how many consecutive cold epochs one range query covers.
// The cold tier inflates a whole compression block (about two mice
// epochs) per read, so a one-epoch range costs one block in every run,
// where a longer range would cost one block or two depending on where the
// block boundaries fall — a bimodal latency whose percentiles jump.
const coldSpan = 1

// sample is one completed request: the n-th of a client.
type sample struct {
	client, n  int
	kind       int
	start, end time.Time
	ok         bool
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

// coldWindow is a [from, to) time range over coldSpan cold epochs, with
// the source address of a flow stored in its first epoch.
type coldWindow struct {
	from, to time.Time
	src      uint32
}

// querier issues the request mix against one pipeline.
type querier struct {
	p       *pipeline
	inputs  []*epochInput
	windows []coldWindow
	seed    uint64
	tr      *tracer
}

// coldWindows is how many cold ranges the queries rotate over: the
// first ones of the store, whose segment and block layout is the same
// in every run of a workload, however many epochs the run wrote.
const coldWindows = 8

// newQuerier finds the store's first cold ranges. The store must already
// hold at least coldSpan cold epochs.
func newQuerier(p *pipeline, inputs []*epochInput, seed uint64, tr *tracer) (*querier, error) {
	src, err := recordstore.Open(p.dir)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	info, ok := src.(recordstore.InfoSource)
	if !ok {
		return nil, fmt.Errorf("store at %s serves no tier metadata", p.dir)
	}
	q := &querier{p: p, inputs: inputs, seed: seed, tr: tr}
	n := src.Epochs()
	for i := 0; i+coldSpan <= n && len(q.windows) < coldWindows; i++ {
		if info.EpochInfo(i+coldSpan-1).Tier != "cold" {
			break
		}
		to := src.EpochTime(i + coldSpan - 1).Add(time.Nanosecond)
		if i+coldSpan < n {
			to = src.EpochTime(i + coldSpan)
		}
		in := inputs[inputOf(i, p.prepop, len(inputs))]
		q.windows = append(q.windows, coldWindow{from: src.EpochTime(i), to: to, src: in.probe.SrcIP})
	}
	if len(q.windows) == 0 {
		return nil, fmt.Errorf("store holds fewer than %d cold epochs", coldSpan)
	}
	return q, nil
}

// run drives the clients until each has issued perClient requests or,
// with perClient 0, until stop closes. It returns every sample.
func (q *querier) run(perClient int, stop <-chan struct{}) []sample {
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		all []sample
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got := q.client(c, perClient, stop)
			mu.Lock()
			all = append(all, got...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all
}

func (q *querier) client(c, perClient int, stop <-chan struct{}) []sample {
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tp.CloseIdleConnections()
	hc := &http.Client{Transport: tp, Timeout: 30 * time.Second}
	rng := rand.New(rand.NewPCG(q.seed, uint64(c)+1))
	var (
		out       []sample
		order     = deck
		body      bytes.Buffer
		hot, cold int
	)
	for n := 0; perClient == 0 || n < perClient; n++ {
		if perClient == 0 {
			select {
			case <-stop:
				return out
			default:
			}
		}
		if n%len(order) == 0 {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		kind := order[n%len(order)]
		var path string
		switch kind {
		case reqFlowsHot:
			path = q.path(kind, hot)
			hot++
		case reqFlowsCold:
			path = q.path(kind, cold*clients+c)
			cold++
		default:
			path = q.path(kind, 0)
		}
		s := sample{client: c, n: n, kind: kind, start: time.Now()}
		body.Reset()
		status, err := get(hc, q.p.baseURL+path, &body)
		s.end = time.Now()
		s.ok = err == nil && status/100 == 2 && validBody(kind, body.Bytes())
		out = append(out, s)
		if q.tr != nil {
			q.tr.addTrace(0, fmt.Sprintf("query-%d-%d", c, n), "query."+reqNames[kind], s.start, s.end, 1)
		}
	}
	return out
}

func get(hc *http.Client, u string, body *bytes.Buffer) (int, error) {
	resp, err := hc.Get(u)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(body, resp.Body)
	return resp.StatusCode, err
}

// path builds the i-th request of the given kind. Hot-epoch queries
// cycle over the four newest queryable epochs, cold-range queries over
// the cold windows, so every run asks the same shares of each. Both
// filter on a source address stored in the epoch.
func (q *querier) path(kind, i int) string {
	switch kind {
	case reqTopK:
		return "/v1/topk?k=100"
	case reqEpochs:
		return "/v1/epochs"
	case reqFlowsHot:
		n := int(q.p.queryable.Load())
		idx := n - 1 - i%min(4, n)
		in := q.inputs[inputOf(idx, q.p.prepop, len(q.inputs))]
		return fmt.Sprintf("/v1/flows?epoch=%d&filter=%s", idx,
			url.QueryEscape("src="+flow.IPString(in.probe.SrcIP)))
	default:
		w := q.windows[i%len(q.windows)]
		return fmt.Sprintf("/v1/flows?from=%s&to=%s&filter=%s",
			url.QueryEscape(w.from.Format(time.RFC3339Nano)),
			url.QueryEscape(w.to.Format(time.RFC3339Nano)),
			url.QueryEscape("src="+flow.IPString(w.src)))
	}
}

// validBody decodes a response; flows queries must also have found the
// filtered flow.
func validBody(kind int, b []byte) bool {
	switch kind {
	case reqTopK:
		var r query.TopKResponse
		return json.Unmarshal(b, &r) == nil && len(r.Flows) > 0
	case reqEpochs:
		var r query.EpochsResponse
		return json.Unmarshal(b, &r) == nil && len(r.Epochs) > 0
	case reqFlowsHot:
		var r query.FlowsResponse
		return json.Unmarshal(b, &r) == nil && r.EpochsScanned == 1 && r.Matched > 0
	default:
		var r query.FlowsResponse
		return json.Unmarshal(b, &r) == nil && r.EpochsScanned == coldSpan && r.Matched > 0
	}
}

// queryRate is the clients' completed requests per second: the median
// over every client's full deck rounds of the round's rate, times the
// number of clients. A median over rounds, like the median over epochs of
// the packet rate, keeps a short stall from moving the whole figure.
func queryRate(samples []sample) float64 {
	type round struct{ client, r int }
	first := map[round]time.Time{}
	last := map[round]time.Time{}
	count := map[round]int{}
	for _, s := range samples {
		k := round{s.client, s.n / len(deck)}
		if t, ok := first[k]; !ok || s.start.Before(t) {
			first[k] = s.start
		}
		if s.end.After(last[k]) {
			last[k] = s.end
		}
		count[k]++
	}
	var rates []float64
	for k, n := range count {
		if n == len(deck) {
			rates = append(rates, float64(n)/last[k].Sub(first[k]).Seconds())
		}
	}
	if len(rates) == 0 {
		return 0
	}
	return clients * median(rates)
}

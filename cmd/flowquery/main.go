// Command flowquery inspects record-store files written by a collector,
// either directly or through a running flowqueryd daemon.
//
// Usage:
//
//	flowquery -store records.frec                          # per-epoch summary
//	flowquery -store records.frec -filter dport=443        # filtered records
//	flowquery -store records.frec -top 10                  # largest flows
//	flowquery -store records.frec -filter proto=17 -top 5
//	flowquery -remote http://127.0.0.1:8080 -top 10        # ask a daemon
//	flowquery -remote http://127.0.0.1:8080 -filter dport=443
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/apps"
	"repro/flow"
	"repro/query"
	"repro/recordstore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "flowquery:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("flowquery", flag.ContinueOnError)
	store := fs.String("store", "", "record store file")
	remote := fs.String("remote", "", "flowqueryd base URL (e.g. http://127.0.0.1:8080)")
	filterExpr := fs.String("filter", "", "filter, e.g. src=10.0.0.1,dport=443,minpkts=10")
	top := fs.Int("top", 0, "print only the N largest matching flows")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*store == "") == (*remote == "") {
		return fmt.Errorf("usage: flowquery (-store <file> | -remote <url>) [-filter expr] [-top n]")
	}
	filter, err := recordstore.ParseFilter(*filterExpr)
	if err != nil {
		return err
	}
	if *remote != "" {
		return runRemote(*remote, filter, *top, w)
	}
	return runLocal(*store, filter, *top, w)
}

func runLocal(store string, filter recordstore.Filter, top int, w io.Writer) error {
	// Open auto-detects the store shape: a flat .frec file or a tiered
	// directory (hot + cold + rollup epochs all list the same way).
	src, err := recordstore.Open(store)
	if err != nil {
		return err
	}
	defer src.Close()

	var matched []flow.Record
	var totalRecords int
	var buf []flow.Record
	epochs := src.Epochs()
	for i := 0; i < epochs; i++ {
		// The store filters during decode, so ep holds only the matches.
		ep, err := src.AppendEpochMatching(i, filter, buf[:0])
		if err != nil {
			return err
		}
		buf = ep.Records
		records := src.EpochLen(i)
		totalRecords += records
		matched = append(matched, ep.Records...)
		if _, err := fmt.Fprintf(w, "epoch %d  %s  %d records, %d matched\n",
			i, ep.Time.Format("2006-01-02T15:04:05.000Z07:00"), records, len(ep.Records)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "total: %d epochs, %d records, %d matched\n",
		epochs, totalRecords, len(matched)); err != nil {
		return err
	}

	if top > 0 {
		for i, r := range apps.TopTalkers(matched, top) {
			if _, err := fmt.Fprintf(w, "%3d. %-45s %d pkts\n", i+1, r.Key, r.Count); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRemote answers the same questions through a flowqueryd daemon on
// the versioned /v1 surface: the epoch summary and filter counts come
// from /v1/epochs + /v1/flows (served off the daemon's store), the top
// listing from the live /v1/topk.
func runRemote(base string, filter recordstore.Filter, top int, w io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}
	base = strings.TrimRight(base, "/")

	var eps query.EpochsResponse
	if err := getJSON(client, base+"/v1/epochs", &eps); err != nil {
		return fmt.Errorf("/v1/epochs: %w", err)
	}
	q := url.Values{}
	if expr := filter.String(); expr != "" {
		q.Set("filter", expr)
	}
	q.Set("limit", strconv.Itoa(query.MaxLimit))
	var flows query.FlowsResponse
	if err := getJSON(client, base+"/v1/flows?"+q.Encode(), &flows); err != nil {
		return fmt.Errorf("/v1/flows: %w", err)
	}

	// Per-epoch matched counts recovered from the flow listing. When the
	// daemon truncated the listing at its match cap, later epochs were
	// never scanned — say so instead of printing silently-partial counts.
	if flows.Limited {
		if _, err := fmt.Fprintf(w,
			"warning: daemon truncated the match listing at %d flows; counts below are partial\n",
			len(flows.Flows)); err != nil {
			return err
		}
	}
	perEpoch := map[int]int{}
	for _, fl := range flows.Flows {
		perEpoch[fl.Epoch]++
	}
	totalRecords := 0
	for _, ep := range eps.Epochs {
		totalRecords += ep.Records
		if _, err := fmt.Fprintf(w, "epoch %d  %s  %d records, %d matched\n",
			ep.Index, ep.Time, ep.Records, perEpoch[ep.Index]); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "total: %d epochs, %d records, %d matched\n",
		len(eps.Epochs), totalRecords, flows.Matched); err != nil {
		return err
	}

	if top > 0 {
		tq := url.Values{"k": {strconv.Itoa(top)}}
		if expr := filter.String(); expr != "" {
			tq.Set("filter", expr)
		}
		var tk query.TopKResponse
		if err := getJSON(client, base+"/v1/topk?"+tq.Encode(), &tk); err != nil {
			return fmt.Errorf("/v1/topk: %w", err)
		}
		for i, fl := range tk.Flows {
			key := fmt.Sprintf("%s:%d -> %s:%d/%d", fl.Src, fl.Sport, fl.Dst, fl.Dport, fl.Proto)
			if _, err := fmt.Fprintf(w, "%3d. %-45s %d pkts\n", i+1, key, fl.Packets); err != nil {
				return err
			}
		}
	}
	return nil
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env query.ErrorEnvelope
		if json.NewDecoder(resp.Body).Decode(&env) == nil && env.Error.Message != "" {
			return fmt.Errorf("status %d: %s (%s)", resp.StatusCode, env.Error.Message, env.Error.Code)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

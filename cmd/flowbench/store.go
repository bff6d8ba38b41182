// The store experiment: the tiered recordstore's cost model. Four
// measurements — how much the cold tier's delta+DEFLATE encoding shrinks
// sorted epoch data vs the hot mmap encoding, what scanning each tier
// costs, what one filtered or unfiltered cold epoch read costs, and how
// long compaction's hot-file rewrite stalls the write path. The compression ratio is a gated quality metric: BENCH_store.json
// pins it so a format change that quietly loses the ≥3x win fails the
// benchdiff gate (and the recordstore unit tests pin the floor harder).
package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/collector"
	"repro/flow"
	"repro/flowmon"
	"repro/recordstore"
)

// storeCompressionRow is one hot-vs-cold size measurement. The shape
// matters: cold blocks concatenate the per-epoch key columns before one
// DEFLATE stream, so when an epoch's key column fits the 32KB DEFLATE
// window, the next epoch's recurring keys compress as back-references
// (the persistent-flow case, where the ratio is large); epochs much
// bigger than the window only shed per-record delta redundancy.
type storeCompressionRow struct {
	Shape            string  `json:"shape"`
	Epochs           int     `json:"epochs"`
	RecordsPerE      int     `json:"records_per_epoch"`
	HotBytes         int64   `json:"hot_bytes"`
	SegmentBytes     int64   `json:"segment_bytes"`
	CompressionRatio float64 `json:"compression_ratio"`
}

// storeScanRow is one tier's full-scan throughput.
type storeScanRow struct {
	Tier        string  `json:"tier"`
	Epochs      int     `json:"epochs"`
	NsPerRecord float64 `json:"ns_per_record"`
	MRecPerS    float64 `json:"mrec_per_s"`
}

// storePointRow is the cost of reading one cold epoch, the way a
// /v1/flows?epoch= request does: with a source-address filter the reader
// inflates only the pieces that can hold the address.
type storePointRow struct {
	Read      string  `json:"read"` // src | all
	Epochs    int     `json:"epochs"`
	UsPerRead float64 `json:"us_per_read"`
}

// storeStallRow summarizes the write-path stall compaction caused.
type storeStallRow struct {
	Rounds       int     `json:"rounds"`
	EpochsPerRnd int     `json:"epochs_per_round"`
	MedStallUs   float64 `json:"med_stall_us"`
	MaxStallUs   float64 `json:"max_stall_us"`
}

// runStoreBench measures the tiered storage layer: cold-tier compression
// ratio on sorted epoch data, cold-scan vs hot-scan decode throughput,
// cold point-read latency, and the compaction stall the ingest path
// observes.
func runStoreBench(cfg config, w io.Writer) error {
	// Epoch shape: a realistic key population from the trace generator,
	// key-sorted once, with per-epoch count drift — the persistent-flow
	// traffic the compactor actually migrates. Counts drift so successive
	// epochs are similar but never identical.
	tr, err := trace2(cfg)
	if err != nil {
		return err
	}
	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{MemoryBytes: cfg.mem, Seed: cfg.seed})
	if err != nil {
		return err
	}
	if err := collector.Replay(rec, tr.Packets(cfg.seed), collector.DefaultBatchSize); err != nil {
		return err
	}
	records := rec.Records()
	flow.SortByKey(records)
	epochs := 256
	if cfg.quick {
		epochs = 32
	}
	drift := func(recs []flow.Record, e int) {
		for i := range recs {
			recs[i].Count = uint32(1000 + (e*31+i*7)%97)
		}
	}

	dir, err := os.MkdirTemp("", "flowbench-store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// (1) Compression: the same epochs through the hot FREC encoding and
	// through a cold segment, at two epoch shapes. The 2k-record
	// persistent-flow shape is the ≥3x contract the unit tests pin; the
	// full-size shape tracks what window-exceeding epochs still save.
	writeBoth := func(name string, recs []flow.Record) (storeCompressionRow, error) {
		hotPath := dir + "/" + name + ".frec"
		hf, err := os.Create(hotPath)
		if err != nil {
			return storeCompressionRow{}, err
		}
		hw := recordstore.NewWriter(hf)
		segPath := dir + "/" + name + ".cseg"
		sf, err := os.Create(segPath)
		if err != nil {
			return storeCompressionRow{}, err
		}
		sw := recordstore.NewSegmentWriter(sf, recordstore.SegmentCold)
		for e := 0; e < epochs; e++ {
			drift(recs, e)
			ts := time.Unix(int64(e)*60, 0)
			if err := hw.WriteEpoch(ts, recs); err != nil {
				return storeCompressionRow{}, err
			}
			if err := sw.Add(recordstore.SegmentEpoch{Time: ts, Records: recs}); err != nil {
				return storeCompressionRow{}, err
			}
		}
		if err := hw.Flush(); err != nil {
			return storeCompressionRow{}, err
		}
		if err := hf.Close(); err != nil {
			return storeCompressionRow{}, err
		}
		if err := sw.Close(); err != nil {
			return storeCompressionRow{}, err
		}
		if err := sf.Close(); err != nil {
			return storeCompressionRow{}, err
		}
		hotSt, err := os.Stat(hotPath)
		if err != nil {
			return storeCompressionRow{}, err
		}
		segSt, err := os.Stat(segPath)
		if err != nil {
			return storeCompressionRow{}, err
		}
		return storeCompressionRow{
			Shape:            name,
			Epochs:           epochs,
			RecordsPerE:      len(recs),
			HotBytes:         hotSt.Size(),
			SegmentBytes:     segSt.Size(),
			CompressionRatio: float64(hotSt.Size()) / float64(segSt.Size()),
		}, nil
	}
	persistent := records
	if len(persistent) > 2000 {
		persistent = persistent[:2000]
	}
	var compRows []storeCompressionRow
	comp, err := writeBoth("persistent", persistent)
	if err != nil {
		return err
	}
	compRows = append(compRows, comp)
	if len(records) > 2*len(persistent) {
		full, err := writeBoth("full", records)
		if err != nil {
			return err
		}
		compRows = append(compRows, full)
	}
	if _, err := fmt.Fprintln(w, "compression\tepochs\trecords_per_epoch\thot_bytes\tsegment_bytes\tratio"); err != nil {
		return err
	}
	for _, row := range compRows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%.2f\n",
			row.Shape, row.Epochs, row.RecordsPerE, row.HotBytes, row.SegmentBytes, row.CompressionRatio); err != nil {
			return err
		}
	}

	// (2) Full-scan decode throughput, hot mmap vs cold inflate, over the
	// largest shape written above.
	passes := 4
	if cfg.quick {
		passes = 2
	}
	scanShape := compRows[len(compRows)-1]
	hotPath := dir + "/" + scanShape.Shape + ".frec"
	segPath := dir + "/" + scanShape.Shape + ".cseg"
	mapped, err := recordstore.OpenMapped(hotPath)
	if err != nil {
		return err
	}
	defer mapped.Close()
	seg, err := recordstore.OpenSegment(segPath)
	if err != nil {
		return err
	}
	defer seg.Close()
	scan := func(src recordstore.EpochSource) (int64, error) {
		return bestNs(passes, func() error {
			var buf []flow.Record
			for i := 0; i < src.Epochs(); i++ {
				ep, err := src.AppendEpochAt(i, buf[:0])
				if err != nil {
					return err
				}
				buf = ep.Records
			}
			return nil
		})
	}
	hotNs, err := scan(mapped)
	if err != nil {
		return err
	}
	coldNs, err := scan(seg)
	if err != nil {
		return err
	}
	totalRecs := epochs * scanShape.RecordsPerE
	scanRows := []storeScanRow{
		{Tier: "hot", Epochs: epochs,
			NsPerRecord: float64(hotNs) / float64(totalRecs),
			MRecPerS:    float64(totalRecs) / (float64(hotNs) / 1e9) / 1e6},
		{Tier: "cold", Epochs: epochs,
			NsPerRecord: float64(coldNs) / float64(totalRecs),
			MRecPerS:    float64(totalRecs) / (float64(coldNs) / 1e9) / 1e6},
	}
	if _, err := fmt.Fprintln(w, "scan\tepochs\tns_per_record\tMrec_per_s"); err != nil {
		return err
	}
	for _, row := range scanRows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.1f\t%.3f\n",
			row.Tier, row.Epochs, row.NsPerRecord, row.MRecPerS); err != nil {
			return err
		}
	}

	// (3) Cold point reads over the same shape: every epoch once, so each
	// read misses the segment's one-block cache as a fresh request would.
	// The filtered read asks for a source address present in every epoch.
	probe := recordstore.Filter{SrcIP: records[len(records)/2].Key.SrcIP}
	var pointRows []storePointRow
	for _, pr := range []struct {
		name string
		f    recordstore.Filter
	}{{"src", probe}, {"all", recordstore.Filter{}}} {
		var buf []flow.Record
		ns, err := bestNs(passes, func() error {
			for i := 0; i < seg.Epochs(); i++ {
				ep, err := seg.AppendEpochMatching(i, pr.f, buf[:0])
				if err != nil {
					return err
				}
				buf = ep.Records
			}
			return nil
		})
		if err != nil {
			return err
		}
		pointRows = append(pointRows, storePointRow{Read: pr.name, Epochs: seg.Epochs(),
			UsPerRead: float64(ns) / float64(seg.Epochs()) / 1e3})
	}
	if _, err := fmt.Fprintln(w, "point_read\tepochs\tus_per_read"); err != nil {
		return err
	}
	for _, row := range pointRows {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.1f\n", row.Read, row.Epochs, row.UsPerRead); err != nil {
			return err
		}
	}

	// (4) Compaction stall: fill a tiered store past its hot window and
	// compact, round after round; the stall is the hot-file rewrite's
	// lock hold — the only compaction cost the write path can see.
	rounds := 8
	if cfg.quick {
		rounds = 4
	}
	perRound := 32
	tiered, _, err := recordstore.OpenTiered(dir+"/tiered", recordstore.TieredOptions{HotEpochs: 8})
	if err != nil {
		return err
	}
	defer tiered.Close()
	stalls := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		for e := 0; e < perRound; e++ {
			drift(records, e)
			ts := time.Unix(int64((r*perRound+e))*60, 0)
			if err := tiered.WriteEpoch(ts, records); err != nil {
				return err
			}
		}
		stats, err := tiered.Compact()
		if err != nil {
			return err
		}
		stalls = append(stalls, float64(stats.StallNs)/1e3)
	}
	sort.Float64s(stalls)
	stall := storeStallRow{
		Rounds:       rounds,
		EpochsPerRnd: perRound,
		MedStallUs:   stalls[len(stalls)/2],
		MaxStallUs:   stalls[len(stalls)-1],
	}
	if _, err := fmt.Fprintln(w, "compaction\trounds\tepochs_per_round\tmed_stall_us\tmax_stall_us"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "stall\t%d\t%d\t%.0f\t%.0f\n",
		stall.Rounds, stall.EpochsPerRnd, stall.MedStallUs, stall.MaxStallUs); err != nil {
		return err
	}

	if cfg.json {
		return writeBenchJSON("store", struct {
			Compression []storeCompressionRow `json:"compression"`
			Scan        []storeScanRow        `json:"scan"`
			PointRead   []storePointRow       `json:"point_read"`
			Compaction  storeStallRow         `json:"compaction"`
		}{compRows, scanRows, pointRows, stall})
	}
	return nil
}

// NetFlow export: the full collection pipeline over a real UDP socket pair.
// A HashFlow recorder observes a trace in epochs; after each epoch its
// records are exported as NetFlow v5 datagrams to a collector goroutine,
// which reassembles the network-wide view.
package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"repro/flowmon"
	"repro/netflow"
	"repro/netwide"
	"repro/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "netflowexport:", err)
		os.Exit(1)
	}
}

func run() error {
	// Collector side: a UDP socket on localhost.
	laddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	sock, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return err
	}
	defer sock.Close()
	// A burst of hundreds of datagrams per epoch overflows the default
	// socket buffer; give the collector headroom like a real deployment.
	if err := sock.SetReadBuffer(4 << 20); err != nil {
		return err
	}

	collector := netflow.NewCollector()
	done := make(chan error, 1)
	go func() {
		defer close(done)
		buf := make([]byte, netflow.MaxDatagramLen)
		for {
			n, _, err := sock.ReadFromUDP(buf)
			if err != nil {
				return // socket closed: exporter finished
			}
			if n == 0 { // sentinel datagram ends the run
				done <- nil
				return
			}
			if err := collector.Ingest(buf[:n]); err != nil {
				done <- err
				return
			}
		}
	}()

	// Exporter side: HashFlow in 128 KB, flushed every epoch.
	conn, err := net.Dial("udp", sock.LocalAddr().String())
	if err != nil {
		return err
	}
	defer conn.Close()

	rec, err := flowmon.New(flowmon.AlgorithmHashFlow, flowmon.Config{
		MemoryBytes: 128 << 10,
		Seed:        9,
	})
	if err != nil {
		return err
	}
	exporter := netflow.NewExporter(func(b []byte) error {
		// Pace the export burst so the collector keeps up, as production
		// NetFlow exporters do.
		time.Sleep(20 * time.Microsecond)
		_, err := conn.Write(b)
		return err
	})
	epochs := netflow.NewEpochExporter(rec, exporter)

	// Three measurement epochs of 5K flows each.
	for epoch := 0; epoch < 3; epoch++ {
		tr, err := trace.Generate(trace.ISP1, 5000, uint64(100+epoch))
		if err != nil {
			return err
		}
		s := tr.Stream(uint64(epoch))
		for {
			p, ok := s.Next()
			if !ok {
				break
			}
			rec.Update(p)
		}
		n, err := epochs.Flush(700)
		if err != nil {
			return err
		}
		fmt.Printf("epoch %d: exported %d records (%d packets offered)\n",
			epoch, n, tr.PacketCount())
	}

	// Tell the collector we are done and wait for it.
	if _, err := conn.Write(nil); err != nil {
		return err
	}
	if err := <-done; err != nil {
		return err
	}

	recs := collector.FlowRecords()
	fmt.Printf("\ncollector received %d/%d records over %d epochs (%d lost to gaps)\n",
		len(recs), epochs.Exported(), epochs.Epochs(), collector.Lost())

	// Treat each epoch as a vantage point and build the merged view.
	// MergeMax orders the merged view by count, largest first.
	merged := netwide.MergeMax(netwide.View{Name: "epochs", Records: recs})
	fmt.Println("largest flows across epochs:")
	for i, r := range merged {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-45s %d pkts\n", r.Key, r.Count)
	}
	return nil
}

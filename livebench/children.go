package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/broker"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/provider"
)

// The broker and every provider run as child processes of the benchmark,
// started from the benchmark's own binary with a role argument. A child
// prints one line announcing that it is up, then obeys line commands on
// standard input: "mark" prints a heap snapshot after a forced GC, and end
// of input makes it print its final report and exit. Each report is one
// line on standard output, prefixed with its kind.

// heapStats is the part of runtime.MemStats the per-layer metrics use.
type heapStats struct {
	HeapAlloc  uint64 `json:"heap_alloc"`
	TotalAlloc uint64 `json:"total_alloc"`
	NumGC      uint32 `json:"num_gc"`
}

// readHeap forces a collection first, so HeapAlloc is the live heap.
func readHeap() heapStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return heapStats{HeapAlloc: ms.HeapAlloc, TotalAlloc: ms.TotalAlloc, NumGC: ms.NumGC}
}

// childReport is a child's final report: its metrics registry and its heap.
type childReport struct {
	Role     string            `json:"role"`
	Counters map[string]int64  `json:"counters"`
	Hists    map[string]string `json:"histograms"`
	Heap     heapStats         `json:"heap"`
}

// parseDump turns metrics.Registry.Dump output back into maps; histograms
// keep their printed summary. Gauges are not used.
func parseDump(dump string) (counters map[string]int64, hists map[string]string) {
	counters, hists = map[string]int64{}, map[string]string{}
	for _, line := range strings.Split(dump, "\n") {
		kind, rest, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		name, val, ok := strings.Cut(rest, " ")
		if !ok {
			continue
		}
		switch kind {
		case "counter":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil {
				counters[name] = n
			}
		case "histogram":
			hists[name] = val
		}
	}
	return counters, hists
}

// histCount reads n= from a printed histogram summary.
func histCount(summary string) int64 {
	for _, f := range strings.Fields(summary) {
		if v, ok := strings.CutPrefix(f, "n="); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

func emit(kind string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "livebench %s: %v\n", kind, err)
		return
	}
	fmt.Printf("%s %s\n", kind, b)
}

// serveCommands answers "mark" until standard input ends.
func serveCommands() {
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "mark" {
			emit("MARK", readHeap())
		}
	}
}

func finalReport(role string, reg *metrics.Registry) childReport {
	c, h := parseDump(reg.Dump())
	return childReport{Role: role, Counters: c, Hists: h, Heap: readHeap()}
}

// childBroker runs a broker with default options, the way
// cmd/tasklet-broker does without flags: memo on, default policy,
// Partitions = NumCPU.
func childBroker(args []string) int {
	fs := flag.NewFlagSet("child-broker", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	b := broker.New(broker.Options{})
	bound, err := b.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "child-broker:", err)
		return 1
	}
	fmt.Printf("ADDR %s\n", bound)
	serveCommands()
	// The heap is read while the broker still holds its state: it is the
	// memory a long-running broker keeps after this much work.
	rep := finalReport("broker", b.Metrics())
	b.Close()
	emit("FINAL", rep)
	return 0
}

// childProvider runs one provider with cmd/tasklet-provider's defaults
// (measured speed, class unknown, local memo on, batching on) and its -q
// flag: log lines would count as write syscalls. Only the slot count and
// throttle come from the workload's fleet.
func childProvider(args []string) int {
	fs := flag.NewFlagSet("child-provider", flag.ContinueOnError)
	brokerAddr := fs.String("broker", "", "broker address")
	slots := fs.Int("slots", 1, "concurrent executions")
	throttle := fs.Float64("throttle", 1, "speed factor in (0,1]")
	name := fs.String("name", "", "provider name")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reg := &metrics.Registry{}
	p, err := provider.Connect(provider.Options{
		BrokerAddr: *brokerAddr,
		Slots:      *slots,
		Class:      core.ClassUnknown,
		Throttle:   *throttle,
		Name:       *name,
		Metrics:    reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "child-provider:", err)
		return 1
	}
	fmt.Printf("READY %d\n", p.ID())
	serveCommands()
	p.Close()
	emit("FINAL", finalReport("provider", reg))
	return 0
}

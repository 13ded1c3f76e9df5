// Command livebench is the repository's live end-to-end benchmark. It runs
// the Tasklet stack over loopback sockets in three kinds of process: this
// one generates load through the public tasklets client API, the broker
// runs in a child process and each provider in another. See README.md for
// the workloads, the metrics and how to compare two commits.
//
// Usage:
//
//	livebench --workload burst --seed 1 --seconds 10 --trace 0
//	livebench --workload all --seed 1 --seconds 10 --trace 1
//	livebench compare -bench BENCHMARK.json -parent DIR -change DIR
//
// The last line of a run's standard output is its result as one JSON
// object; the lines before it are the report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runLimit bounds a whole invocation: past it every child is killed and
// the benchmark exits without a result.
const runLimit = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child-broker":
			os.Exit(childBroker(os.Args[2:]))
		case "child-provider":
			os.Exit(childProvider(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) (code int) {
	fs := flag.NewFlagSet("livebench", flag.ContinueOnError)
	wl := fs.String("workload", "", "burst, interactive, hetero, zipf-vote, or all")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "run length the job list is sized for")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	records := fs.String("records", filepath.Join(".bench_build", "livebench", "runs"), "directory for run records")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "livebench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}

	// Every exit path kills the children: return, panic, signal, timeout.
	defer killChildren()
	defer func() {
		if p := recover(); p != nil {
			fmt.Fprintln(os.Stderr, "livebench: panic:", p)
			code = 1
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killChildren()
		os.Exit(1)
	}()
	watchdog := time.AfterFunc(runLimit, func() {
		fmt.Fprintln(os.Stderr, "livebench: run limit exceeded")
		killChildren()
		os.Exit(3)
	})
	defer watchdog.Stop()

	names := []string{*wl}
	if *wl == "all" {
		names = workloadNames
		watchdog.Stop() // each workload's passes are bounded on their own
	}
	var last *record
	for _, name := range names {
		cfg := runConfig{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, exe: exe}
		rec, err := benchOne(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "livebench %s: %v\n", name, err)
			return 1
		}
		if err := saveRecord(*records, rec); err != nil {
			fmt.Fprintln(os.Stderr, "livebench: record:", err)
			return 1
		}
		if len(names) > 1 {
			fmt.Println()
		}
		last = rec
		if !rec.Result.Correct {
			break
		}
	}
	b, err := json.Marshal(last.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "livebench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !last.Result.Correct {
		return 1
	}
	return 0
}

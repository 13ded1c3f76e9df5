// Command tasklet-broker runs the Tasklet broker: the mediator that
// registers providers, accepts jobs from consumers, schedules tasklets and
// routes results.
//
// Usage:
//
//	tasklet-broker -addr :7420 -policy work_steal
//
// Sharded deployments run several brokers and route jobs by consistent
// hash of the program (see README "Broker sharding"):
//
//	tasklet-broker -addr :7420 -shards 4 -exchange        # in-process group on ports 7420..7423
//	tasklet-broker -addr :7420 -shard-id 1 -peer host2:7420 -exchange   # one shard of a multi-host group
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/broker"
	"repro/internal/scheduler"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7420", "listen address")
	policy := flag.String("policy", "work_steal",
		"scheduling policy: "+strings.Join(scheduler.Names(), ", "))
	seed := flag.Uint64("seed", 1, "seed for stochastic policies")
	heartbeat := flag.Duration("heartbeat", 5*time.Second, "provider heartbeat timeout")
	memoEntries := flag.Int("memo", 0, "result-memo entry budget (0 = default, negative = disable memoization)")
	memoTTL := flag.Duration("memo-ttl", 0, "result-memo entry TTL (0 = default)")
	maxAttempts := flag.Int("max-attempts", 0,
		"cap total attempts per tasklet across lost-attempt re-issues (0 = unlimited); exhaustion fails the tasklet as lost")
	retryBackoff := flag.Duration("retry-backoff", 0,
		"base delay before re-issuing a lost attempt, doubling per re-issue (0 = immediate)")
	noCoalesce := flag.Bool("no-coalesce", false,
		"disable write coalescing (flush every frame individually; ablation/debugging)")
	noBatch := flag.Bool("no-batch", false,
		"disable batch frames (one Assign/ResultPush per attempt even to batch-capable peers; ablation/debugging)")
	noIndex := flag.Bool("no-index", false,
		"disable the incremental scheduler index (full-scan placement; ablation/debugging)")
	shards := flag.Int("shards", 1,
		"run an in-process shard group of N brokers (an explicit port P binds ports P..P+N-1)")
	shardID := flag.Uint64("shard-id", 0,
		"this broker's shard ID in a multi-process group (0 = unsharded; mutually exclusive with -shards)")
	peers := flag.String("peer", "",
		"comma-separated peer broker addresses to link with (requires -shard-id)")
	exchange := flag.Bool("exchange", false,
		"enable the pull-based work exchange toward this broker when it is underloaded")
	gossip := flag.Duration("gossip", 0, "shard load-gossip interval (0 = 100ms default)")
	stats := flag.Duration("stats", 0, "print a status line at this interval (0 = off)")
	quiet := flag.Bool("q", false, "suppress operational logs")
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *quiet {
		logger = nil
	}

	if *shards > 1 && *shardID != 0 {
		fmt.Fprintln(os.Stderr, "-shards and -shard-id are mutually exclusive")
		os.Exit(2)
	}
	mkOptions := func() (broker.Options, error) {
		pol, err := scheduler.New(*policy, *seed)
		if err != nil {
			return broker.Options{}, err
		}
		return broker.Options{
			Policy:           pol,
			HeartbeatTimeout: *heartbeat,
			Logger:           logger,
			MemoEntries:      *memoEntries,
			MemoTTL:          *memoTTL,
			MaxAttempts:      *maxAttempts,
			RetryBackoff:     *retryBackoff,
			NoCoalesce:       *noCoalesce,
			NoBatch:          *noBatch,
			NoIndex:          *noIndex,
			ShardID:          *shardID,
			GossipInterval:   *gossip,
			Exchange:         *exchange,
		}, nil
	}

	var b *broker.Broker // the (only or first) shard, for -stats
	var closer io.Closer // what shutdown tears down
	if *shards > 1 {
		// In-process shard group: policies carry mutable state, so each
		// shard gets its own instance.
		var mkErr error
		g := broker.NewShardGroupWith(*shards, func(int) broker.Options {
			o, err := mkOptions()
			if err != nil {
				mkErr = err
			}
			return o
		})
		if mkErr != nil {
			fmt.Fprintln(os.Stderr, mkErr)
			os.Exit(2)
		}
		addrs, err := g.Listen(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("tasklet-broker shard group listening on %s (policy %s, exchange %v)\n",
			strings.Join(addrs, " "), *policy, *exchange)
		b, closer = g.Broker(0), g
	} else {
		opts, err := mkOptions()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		b = broker.New(opts)
		closer = b
		bound, err := b.Listen(*addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("tasklet-broker listening on %s (policy %s)\n", bound, *policy)
		if *peers != "" {
			if *shardID == 0 {
				fmt.Fprintln(os.Stderr, "-peer requires -shard-id")
				os.Exit(2)
			}
			for _, pa := range strings.Split(*peers, ",") {
				pa = strings.TrimSpace(pa)
				if pa == "" {
					continue
				}
				// Peers may come up in any order; keep retrying in the
				// background until the link is made.
				go func(pa string) {
					backoff := time.Second
					for {
						err := b.ConnectPeer(pa)
						if err == nil {
							return
						}
						fmt.Fprintf(os.Stderr, "peer %s: %v; retrying in %v\n", pa, err, backoff)
						time.Sleep(backoff)
						if backoff < 30*time.Second {
							backoff *= 2
						}
					}
				}(pa)
			}
		}
	}

	if *stats > 0 {
		go func() {
			tick := time.NewTicker(*stats)
			defer tick.Stop()
			for range tick.C {
				s := b.Snapshot()
				m := b.Metrics()
				fmt.Printf("status: %d providers, %d jobs, %d pending, %d in flight; memo %d hits / %d misses / %d stores / %d evictions / %d coalesced\n",
					len(s.Providers), s.Jobs, s.Pending, s.InFlight,
					m.Counter("memo.hits").Value(), m.Counter("memo.misses").Value(),
					m.Counter("memo.stores").Value(), m.Counter("memo.evictions").Value(),
					m.Counter("memo.coalesced").Value())
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	if err := closer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

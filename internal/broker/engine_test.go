package broker

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/consumer"
	"repro/internal/core"
	"repro/internal/provider"
)

// heavySrc is a ~20x heavier slowSrc: a few-millisecond QoC deadline is
// unmeetable even on a fast idle provider, so deadline jobs built from it
// always expire on the timer wheel.
const heavySrc = `func main(n int) int {
	var s int = 0;
	for (var i int = 0; i < 400000; i = i + 1) { s = s + i; }
	return n * n;
}`

// TestEngineStressInterleaved hammers the broker's single lifecycle engine
// with interleaved submits, results, QoC deadlines, job cancels, and a
// provider loss, then asserts the engine-safety invariants: no tasklet is
// finalized twice (every surviving job yields exactly one result per index)
// and no attempt leaks (all lifecycle state drains to zero once the dust
// settles). Run it under -race (and -cpu 1,2,4) and the ingress ring, timer
// wheel and combiner handoff are all exercised by concurrent producers.
func TestEngineStressInterleaved(t *testing.T) {
	b := New(Options{RetryBackoff: time.Millisecond})
	addr, err := b.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	for i := 0; i < 2; i++ {
		p, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: 4, Speed: 100, Name: fmt.Sprintf("steady%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
	}
	// Slow providers keep attempts in flight long enough for deadlines and
	// cancels to catch them. "crawler" stays up all run (so late deadline
	// jobs still have attempts that blow their budget); "doomed" dies mid-run
	// to exercise ProviderLost re-issues (with backoff, so the timer wheel's
	// launch path runs too).
	crawler, err := provider.Connect(provider.Options{
		BrokerAddr: addr, Slots: 2, Speed: 100, Throttle: 0.2, Name: "crawler"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { crawler.Close() })
	doomed, err := provider.Connect(provider.Options{
		BrokerAddr: addr, Slots: 2, Speed: 100, Throttle: 0.05, Name: "doomed"})
	if err != nil {
		t.Fatal(err)
	}

	const workers = 4
	const jobsPerWorker = 6
	const n = 24
	// Compiled once on the test goroutine; workers copy them (compileJob uses
	// t.Fatal, which must not run off the test goroutine). Deadline jobs run
	// heavySrc, so every run drives expirations through the wheel.
	baseSpec := compileJob(t, slowSrc, intRows(n)...)
	heavySpec := compileJob(t, heavySrc, intRows(n)...)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := consumer.Connect(addr, fmt.Sprintf("stress%d", w))
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < jobsPerWorker; j++ {
				spec := baseSpec
				switch j % 3 {
				case 1:
					// Tight deadline: tasklets expire on the wheel (the work
					// outlasts the budget); every index must still settle
					// exactly once.
					spec = heavySpec
					spec.QoC = core.QoC{Deadline: 3 * time.Millisecond}
				case 2:
					// Cancelled mid-flight after a short head start.
					job, err := c.Submit(spec)
					if err != nil {
						errs <- err
						return
					}
					time.Sleep(2 * time.Millisecond)
					if err := c.Cancel(job); err != nil {
						errs <- err
						return
					}
					continue
				}
				job, err := c.Submit(spec)
				if err != nil {
					errs <- err
					return
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := job.Collect(ctx)
				cancel()
				if err != nil {
					errs <- err
					return
				}
				if len(res) != n {
					errs <- fmt.Errorf("worker %d job %d: %d results, want %d", w, j, len(res), n)
					return
				}
				seen := map[int]bool{}
				for _, r := range res {
					if seen[r.Index] {
						errs <- fmt.Errorf("worker %d job %d: index %d finalized twice", w, j, r.Index)
						return
					}
					seen[r.Index] = true
				}
			}
		}(w)
	}

	time.Sleep(25 * time.Millisecond)
	doomed.Close() // mid-run provider loss

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Attempt-leak check: with every consumer gone (cancelled jobs die with
	// their consumer) the engines and queues must drain to zero. The window
	// is generous because abandoned attempts settle only when their provider
	// reports in, and the throttled provider stretches race-slowed
	// executions considerably.
	deadline := time.Now().Add(30 * time.Second)
	for {
		s := b.Snapshot()
		if s.Pending == 0 && s.InFlight == 0 && s.Jobs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaked state after stress: pending=%d inflight=%d jobs=%d",
				s.Pending, s.InFlight, s.Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}

	m := b.Metrics()
	if m.Counter("tasklets.deadline_expired").Value() == 0 {
		t.Error("stress never expired a deadline (wheel path not exercised)")
	}
	if m.Counter("attempts.lost").Value() == 0 {
		t.Error("provider loss produced no lost attempts")
	}
}

// TestNoGoroutineLeak runs a live broker, two providers and a consumer
// through jobs that arm QoC deadlines and re-issue lost attempts with a
// retry backoff (one provider dies while holding attempts, so the timer
// wheel's launch path runs), closes everything, and requires the goroutine
// count to return to its pre-test baseline. A long-running broker must not
// accumulate goroutines per tasklet, timer or connection.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		b := New(Options{RetryBackoff: 2 * time.Millisecond})
		addr, err := b.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		steady, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: 2, Speed: 100, Name: "steady"})
		if err != nil {
			t.Fatal(err)
		}
		defer steady.Close()
		doomed, err := provider.Connect(provider.Options{
			BrokerAddr: addr, Slots: 2, Speed: 100, Throttle: 0.05, Name: "doomed"})
		if err != nil {
			t.Fatal(err)
		}
		defer doomed.Close()
		c, err := consumer.Connect(addr, "leak")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()

		const n = 16
		// heavySrc keeps the throttled provider busy well past the sleep
		// below, so its loss always strands attempts.
		retried, err := c.Submit(compileJob(t, heavySrc, intRows(n)...))
		if err != nil {
			t.Fatal(err)
		}
		deadlined := compileJob(t, heavySrc, intRows(n)...)
		deadlined.QoC = core.QoC{Deadline: 3 * time.Millisecond}
		expiring, err := c.Submit(deadlined)
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
		doomed.Close()
		for _, job := range []*consumer.Job{retried, expiring} {
			res, err := job.Collect(ctxT(t))
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != n {
				t.Fatalf("job %d: %d results, want %d", job.ID, len(res), n)
			}
		}
		m := b.Metrics()
		if m.Counter("attempts.lost").Value() == 0 {
			t.Error("provider loss produced no lost attempts (backoff path not exercised)")
		}
		if m.Counter("tasklets.deadline_expired").Value() == 0 {
			t.Error("no deadline expired (wheel deadline path not exercised)")
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines: %d before, %d after close\n%s", before, runtime.NumGoroutine(), buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/tasklets"
)

// child is one broker or provider process.
type child struct {
	name  string
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string   // stdout lines; closed at end of output
	done  chan struct{} // closed once the process has been reaped
	exit  string        // exit status, valid after done
}

// children tracks every live child so each exit path can kill them all.
var children struct {
	sync.Mutex
	set map[*child]struct{}
}

// spawn starts the benchmark binary in a child role. The child gets
// SIGKILL if the benchmark dies first, so no exit path leaks a process.
func spawn(exe, name string, args ...string) (*child, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, stdin: stdin, lines: make(chan string, 8), done: make(chan struct{})}
	children.Lock()
	if children.set == nil {
		children.set = map[*child]struct{}{}
	}
	children.set[c] = struct{}{}
	children.Unlock()
	go func() {
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		for sc.Scan() {
			c.lines <- sc.Text()
		}
		close(c.lines)
		// Wait only after stdout is drained: Wait closes the pipe.
		err := cmd.Wait()
		c.exit = "exit 0"
		if err != nil {
			c.exit = err.Error()
		}
		children.Lock()
		delete(children.set, c)
		children.Unlock()
		close(c.done)
	}()
	return c, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// expect returns the payload of the next stdout line starting with prefix.
func (c *child) expect(prefix string, timeout time.Duration) (string, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case line, ok := <-c.lines:
			if !ok {
				<-c.done
				return "", fmt.Errorf("%s ended (%s) before %s", c.name, c.exit, prefix)
			}
			if rest, found := strings.CutPrefix(line, prefix+" "); found {
				return rest, nil
			}
			fmt.Fprintf(os.Stderr, "%s: %s\n", c.name, line)
		case <-deadline.C:
			return "", fmt.Errorf("%s: no %s within %v", c.name, prefix, timeout)
		}
	}
}

// mark asks the child for a heap snapshot taken after a forced GC.
func (c *child) mark() (heapStats, error) {
	var h heapStats
	if _, err := io.WriteString(c.stdin, "mark\n"); err != nil {
		return h, fmt.Errorf("%s: mark: %w", c.name, err)
	}
	line, err := c.expect("MARK", 30*time.Second)
	if err != nil {
		return h, err
	}
	return h, json.Unmarshal([]byte(line), &h)
}

// stop ends the child's input, collects its final report and reaps it,
// killing it if it does not finish in time.
func (c *child) stop() (*childReport, error) {
	c.stdin.Close()
	var rep *childReport
	line, err := c.expect("FINAL", 20*time.Second)
	if err == nil {
		rep = new(childReport)
		err = json.Unmarshal([]byte(line), rep)
	}
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
	return rep, err
}

// killChildren kills every child still running and waits for each to be
// reaped. It is safe to call from any exit path.
func killChildren() {
	children.Lock()
	var all []*child
	for c := range children.set {
		all = append(all, c)
	}
	children.Unlock()
	for _, c := range all {
		c.cmd.Process.Kill()
	}
	for _, c := range all {
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
		}
	}
}

// provSpec is one provider of a workload's fleet.
type provSpec struct {
	Slots    int
	Throttle float64
}

// stack is one running broker, its providers and the consumer sessions.
type stack struct {
	broker     *child
	brokerAddr string
	relay      *relay // nil when untraced
	providers  []*child
	clients    []*tasklets.Client
	registerMS []float64 // per provider: spawn until listed in the fleet
	reports    []*childReport
	exits      []string
}

// dialAddr is where sessions and providers connect: the broker itself, or
// the tracing relay in front of it.
func (s *stack) dialAddr() string {
	if s.relay != nil {
		return s.relay.addr()
	}
	return s.brokerAddr
}

// startStack starts the broker, connects the sessions, then starts the
// providers one at a time in fleet order, each only after the previous one
// is listed in the fleet: registration order sets provider IDs, and IDs
// break placement ties.
func startStack(exe string, fleet []provSpec, sessions int, traced bool) (*stack, error) {
	s := &stack{}
	b, err := spawn(exe, "broker", "child-broker")
	if err != nil {
		return nil, err
	}
	s.broker = b
	if s.brokerAddr, err = b.expect("ADDR", 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	if traced {
		if s.relay, err = newRelay(s.brokerAddr); err != nil {
			s.stop()
			return nil, err
		}
	}
	for i := 0; i < sessions; i++ {
		c, err := tasklets.Dial(s.dialAddr())
		if err != nil {
			s.stop()
			return nil, fmt.Errorf("dial session %d: %w", i, err)
		}
		s.clients = append(s.clients, c)
	}
	for i, ps := range fleet {
		t0 := time.Now()
		name := fmt.Sprintf("p%d", i+1)
		p, err := spawn(exe, name, "child-provider", "-broker", s.dialAddr(),
			"-slots", strconv.Itoa(ps.Slots), "-throttle", strconv.FormatFloat(ps.Throttle, 'g', -1, 64),
			"-name", name)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.providers = append(s.providers, p)
		if _, err := p.expect("READY", 60*time.Second); err != nil {
			s.stop()
			return nil, err
		}
		if err := s.waitFleet(i + 1); err != nil {
			s.stop()
			return nil, err
		}
		s.registerMS = append(s.registerMS, float64(time.Since(t0).Microseconds())/1e3)
	}
	return s, nil
}

// waitFleet polls the broker's directory until n providers are listed.
func (s *stack) waitFleet(n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		fl, _, err := s.clients[0].Fleet()
		if err != nil {
			return fmt.Errorf("fleet query: %w", err)
		}
		if len(fl) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet lists %d providers, want %d", len(fl), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// pids lists the broker's and the providers' process IDs.
func (s *stack) pids() (brokerPID int, providerPIDs []int) {
	for _, p := range s.providers {
		providerPIDs = append(providerPIDs, p.pid())
	}
	return s.broker.pid(), providerPIDs
}

// stop closes the sessions, then the providers, then the broker, and
// keeps each child's final report and exit status (broker first).
func (s *stack) stop() error {
	for _, c := range s.clients {
		c.Close()
	}
	s.clients = nil
	var errs []error
	var reports []*childReport
	var exits []string
	for _, p := range s.providers {
		rep, err := p.stop()
		reports = append(reports, rep)
		exits = append(exits, p.name+": "+p.exit)
		errs = append(errs, err)
	}
	if s.broker != nil {
		rep, err := s.broker.stop()
		reports = append([]*childReport{rep}, reports...)
		exits = append([]string{"broker: " + s.broker.exit}, exits...)
		errs = append(errs, err)
	}
	if s.relay != nil {
		s.relay.close()
	}
	s.reports, s.exits = reports, exits
	return errors.Join(errs...)
}

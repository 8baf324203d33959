package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
)

// Pool is a set of long-lived local ctrlexec processes, each a
// supervised child serving shards over loopback HTTP. A lease borrows
// an idle process (spawning one when none is idle), runs the shard
// through the HTTP transport, and hands the process back only after a
// clean done event — so the per-process golden memo is built once per
// (process, variant) instead of once per shard, while a crashed,
// wedged or erroring shard never serves again: any other outcome
// SIGKILLs and reaps its process. A process runs one shard at a time,
// so concurrent campaigns sharing a pool stay as isolated as they were
// with a process per lease. The executor still self-limits its wall
// clock per shard and its heap (ctrlexec -timeout, -mem).
type Pool struct {
	// Bin is the ctrlexec binary to spawn.
	Bin string

	// Args are extra arguments for every spawned process (e.g. the
	// -timeout, -mem resource limits).
	Args []string

	// OnLease, if non-nil, observes every lease with the pid of the
	// process running it. TEST-ONLY: the chaos suite uses it to SIGKILL
	// executors mid-shard and to pin process reuse.
	OnLease func(task ShardTask, pid int)

	mu     sync.Mutex
	idle   []*child
	all    map[*child]bool
	closed bool
}

// errPoolClosed fails leases that arrive after Close.
var errPoolClosed = errors.New("dist: executor pool closed")

// child is one ctrlexec process of a pool.
type child struct {
	stderr *stderrTail
	client *http.Client // its own transport, so kill drops its connections

	mu     sync.Mutex
	proc   *os.Process // set once started
	killed bool        // a kill came first: do not start

	ready  chan struct{} // closed once url or err is set
	url    string
	err    error
	exited chan struct{} // closed once the process is reaped or failed to start
}

// Proc is one local executor slot over a Pool. Slots sharing a pool
// share its idle processes.
type Proc struct {
	Pool *Pool

	// Tag names this executor slot in journals and logs
	// (default "proc").
	Tag string
}

// Name implements Executor.
func (p *Proc) Name() string {
	if p.Tag != "" {
		return p.Tag
	}
	return "proc"
}

// Run implements Executor. Cancelling ctx (lease expiry) aborts the
// request and SIGKILLs the process: a wedged executor may no longer
// answer anything gentler.
func (p *Proc) Run(ctx context.Context, task ShardTask, sink func(Event)) error {
	pool := p.Pool
	c, err := pool.acquire(ctx)
	if err != nil {
		return err
	}
	c.stderr.reset()
	if pool.OnLease != nil {
		pool.OnLease(task, c.proc.Pid)
	}
	err = (&HTTP{URL: c.url, Tag: p.Name(), Client: c.client}).Run(ctx, task, sink)
	if err == nil {
		pool.release(c)
		return nil
	}
	pool.discard(c)
	if msg := c.stderr.String(); msg != "" {
		return fmt.Errorf("%w (stderr: %s)", err, msg)
	}
	return err
}

// Prestart puts n processes into the idle set without waiting for
// them: they start in the background, and a lease that takes one
// before it serves waits for it.
func (p *Pool) Prestart(n int) {
	for i := 0; i < n; i++ {
		if c, err := p.spawn(); err == nil {
			p.release(c)
		}
	}
}

// Close kills and reaps every process, idle or busy; leases after it
// fail. Safe to call more than once.
func (p *Pool) Close() {
	p.mu.Lock()
	all := p.all
	p.closed, p.all, p.idle = true, nil, nil
	p.mu.Unlock()
	for c := range all {
		c.kill()
	}
}

// acquire takes an idle process, or spawns one, and waits under ctx
// until it serves.
func (p *Pool) acquire(ctx context.Context) (*child, error) {
	var c *child
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errPoolClosed
	}
	for c == nil && len(p.idle) > 0 {
		c = p.idle[len(p.idle)-1]
		p.idle = p.idle[:len(p.idle)-1]
		select {
		case <-c.exited: // died while idle; already reaped
			delete(p.all, c)
			c = nil
		default:
		}
	}
	p.mu.Unlock()
	if c == nil {
		var err error
		if c, err = p.spawn(); err != nil {
			return nil, err
		}
	}
	select {
	case <-c.ready:
	case <-ctx.Done():
		p.discard(c)
		return nil, ctx.Err()
	}
	if c.err != nil {
		p.discard(c)
		return nil, c.err
	}
	return c, nil
}

// release returns a process whose shard finished cleanly to the idle
// set.
func (p *Pool) release(c *child) {
	p.mu.Lock()
	if !p.closed {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.kill()
}

// discard kills and reaps a process that must not serve again.
func (p *Pool) discard(c *child) {
	c.kill()
	p.mu.Lock()
	delete(p.all, c)
	p.mu.Unlock()
}

// spawn registers a new process with the pool and starts it in the
// background; c.ready closes once it serves or has failed to.
func (p *Pool) spawn() (*child, error) {
	c := &child{
		stderr: &stderrTail{},
		client: &http.Client{Transport: &http.Transport{}},
		ready:  make(chan struct{}),
		exited: make(chan struct{}),
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, errPoolClosed
	}
	if p.all == nil {
		p.all = make(map[*child]bool)
	}
	p.all[c] = true
	go c.run(p.Bin, p.Args)
	return c, nil
}

// run starts the process, reads its address line, drains the rest of
// its stdout, and reaps it.
func (c *child) run(bin string, args []string) {
	defer close(c.exited)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = c.stderr
	// Nothing is written to the process's stdin: it exits when the pipe
	// reaches EOF, as it does when this process dies, so a crashed
	// daemon leaves no orphans.
	_, err := cmd.StdinPipe()
	var stdout io.Reader
	if err == nil {
		stdout, err = cmd.StdoutPipe()
	}
	if err == nil {
		err = c.start(cmd)
	}
	if err != nil {
		c.err = fmt.Errorf("dist: spawn %s: %w", bin, err)
		close(c.ready)
		return
	}

	r := bufio.NewReaderSize(stdout, 256)
	line, err := r.ReadSlice('\n')
	if addr := string(bytes.TrimSpace(line)); err == nil && addr != "" {
		c.url = "http://" + addr
		close(c.ready)
	} else {
		cmd.Process.Kill()
	}
	io.Copy(io.Discard, r)
	waitErr := cmd.Wait()
	if c.url == "" {
		c.err = fmt.Errorf("dist: executor %s exited before announcing its address: %v", bin, waitErr)
		if msg := c.stderr.String(); msg != "" {
			c.err = fmt.Errorf("%w (stderr: %s)", c.err, msg)
		}
		close(c.ready)
	}
}

// start starts cmd unless the child was killed first.
func (c *child) start(cmd *exec.Cmd) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.killed {
		return errors.New("killed before start")
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	c.proc = cmd.Process
	return nil
}

// kill SIGKILLs the process, or keeps it from starting, and waits until
// it is reaped.
func (c *child) kill() {
	c.mu.Lock()
	c.killed = true
	if c.proc != nil {
		c.proc.Kill()
	}
	c.mu.Unlock()
	<-c.exited
	c.client.CloseIdleConnections()
}

// stderrTail keeps the last chunk of a process's stderr for error
// reporting without buffering unbounded output.
type stderrTail struct {
	mu  sync.Mutex
	buf []byte
}

func (t *stderrTail) Write(b []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, b...)
	if n := len(t.buf); n > 4096 {
		t.buf = append(t.buf[:0], t.buf[n-4096:]...)
	}
	return len(b), nil
}

// reset forgets earlier leases' output, so an error carries only the
// failing lease's stderr.
func (t *stderrTail) reset() {
	t.mu.Lock()
	t.buf = t.buf[:0]
	t.mu.Unlock()
}

func (t *stderrTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

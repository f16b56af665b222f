package main

import (
	"context"
	"io"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"
)

// super restarts a child process until stopped, appending its output to a
// log file in the work dir.
type super struct {
	name    string
	cancel  context.CancelFunc
	stopped chan struct{}
	cmd     atomic.Pointer[exec.Cmd] // the current incarnation
	restart atomic.Int64             // its restart number
}

// newSuper creates pr's log file and starts supervising pr. A log file that
// cannot be created is returned as an error before anything starts, so the
// caller's deferred stops still reap every child already running.
func newSuper(pr proc, c cfg) (*super, error) {
	f, err := os.Create(filepath.Join(c.workDir, pr.name+".log"))
	if err != nil {
		return nil, err
	}
	var w io.Writer = f
	if c.verbose {
		w = io.MultiWriter(f, os.Stderr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &super{name: pr.name, cancel: cancel, stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		defer f.Close()
		for restart := 0; ctx.Err() == nil; restart++ {
			argv := pr.argv(restart)
			cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
			// stop asks politely first, and SIGKILLs after 3s.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			cmd.WaitDelay = 3 * time.Second
			cmd.Stdout, cmd.Stderr = w, w
			if err := cmd.Start(); err != nil {
				if ctx.Err() == nil {
					log.Printf("chaos: start %s: %v", s.name, err)
				}
				return
			}
			s.cmd.Store(cmd)
			s.restart.Store(int64(restart))
			cmd.Wait()
			select {
			case <-ctx.Done():
			case <-time.After(200 * time.Millisecond): // restart backoff
			}
		}
	}()
	return s, nil
}

// kill SIGKILLs the current incarnation (the supervisor restarts it).
func (s *super) kill() {
	if cmd := s.cmd.Load(); cmd != nil {
		cmd.Process.Kill()
	}
}

// stop terminates the child for good and waits for its supervisor to exit.
func (s *super) stop() {
	s.cancel()
	<-s.stopped
}

// freeAddr is newPlan's alloc: it reserves an ephemeral 127.0.0.1 port and
// closes the listener before use. The small race is acceptable for a test
// harness, and the port stays stable across restarts.
func freeAddr(string) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// waitListening dials until addr accepts or the timeout expires.
func waitListening(addr string, timeout time.Duration) error {
	return poll(timeout, 50*time.Millisecond, func() error {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
		}
		return err
	})
}

package mesh

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"pulsarqr/internal/procgroup"
	"pulsarqr/internal/transport"
)

// Launch makes f rank 0 of a new loopback mesh: it reserves a port per rank,
// keeps rank 0's listener bound for Dial, and starts ranks 1..ranks-1 as one
// supervised group of copies of this executable: args — the caller's own
// argument list, flags only — then -launch=0 -rank i -peers …, which win
// because the flag package lets the last value stand. Each child's output is
// relayed to out line by line under a "[rank i] " prefix, one Write a line;
// out is the caller's own output too, so it takes concurrent writers already
// (os.Stdout does).
//
// A child that exits non-zero of its own accord is logged and counted in the
// exit code. If failed is non-nil the rest of the group is then killed and
// failed told why: a factorization's mesh cannot finish without a rank, and
// the survivors would sit in it until their timeouts. A nil failed leaves
// them running — a service fleet evicts the rank and carries on.
//
// The returned stop gives the children grace to exit on their own, kills
// whatever is left — each child's whole process group — and returns the worst
// exit code of those that failed by themselves. It is idempotent: deferred
// with no grace, it covers every early return.
func (f *Flags) Launch(ranks int, args []string, out io.Writer, logf func(string, ...any), failed func(error)) (stop func(grace time.Duration) int, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	lns, peers, err := transport.ListenLoopback(ranks)
	if err != nil {
		return nil, err
	}
	// The children re-bind their ports at once; only theirs are ever
	// released, so rank 0 — the address every child dials first — cannot be
	// lost to another process.
	for _, ln := range lns[1:] {
		ln.Close()
	}
	f.Rank, f.Peers, f.ln = 0, strings.Join(peers, ","), lns[0]
	group := procgroup.New()
	var wg sync.WaitGroup
	var mu sync.Mutex // guards code until every child has been reaped
	code := 0
	for i := 1; i < ranks; i++ {
		cmd := exec.Command(exe, append(args[:len(args):len(args)],
			"-launch=0", "-rank", strconv.Itoa(i), "-peers", f.Peers)...)
		pipe, err := cmd.StdoutPipe()
		if err == nil {
			cmd.Stderr = cmd.Stdout // merged: one ordered stream per child
			err = group.Start(cmd)
		}
		if err != nil {
			group.Kill() // the ranks already started reap themselves
			f.ln.Close()
			return nil, fmt.Errorf("start rank %d: %w", i, err)
		}
		logf("rank %d is pid %d, a copy of %s", i, cmd.Process.Pid, exe)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sc := bufio.NewScanner(pipe); sc.Scan(); {
				fmt.Fprintf(out, "[rank %d] %s\n", i, sc.Text())
			}
			err := cmd.Wait()
			if err == nil || group.Killed() {
				return // a clean exit, or our own doing
			}
			logf("rank %d: %v", i, err)
			mu.Lock()
			code = max(code, cmd.ProcessState.ExitCode(), 1)
			mu.Unlock()
			if failed != nil {
				group.Kill()
				failed(fmt.Errorf("rank %d: %w", i, err))
			}
		}()
	}
	reaped := make(chan struct{})
	go func() { wg.Wait(); close(reaped) }()
	return func(grace time.Duration) int {
		select {
		case <-reaped:
		case <-time.After(grace):
			if grace > 0 {
				logf("launched ranks still running after %v, killing", grace)
			}
		}
		group.Kill()
		<-reaped
		return code
	}, nil
}

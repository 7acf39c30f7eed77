//go:build unix

package main

import (
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// A rank whose peer never appears gives up at the rendezvous timeout with an
// error that names the peer, and does not hang. Rank 1's port is held by a
// socket bound but never listening: nothing else can take the port while
// the test runs, and every connect to it is refused. Rank 0 listens on a
// port of the system's choosing, which no other rank needs to know.
func TestLoneRankFailsAtRendezvous(t *testing.T) {
	t.Parallel()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	rank1 := "127.0.0.1:" + strconv.Itoa(sa.(*syscall.SockaddrInet4).Port)
	start := time.Now()
	code, out := qrfactor("-rank", "0", "-peers", "127.0.0.1:0,"+rank1, "-rendezvous", "1s")
	if code != 1 || !strings.Contains(out, "cannot reach rank 1") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("took %v to give up on a 1s rendezvous", d)
	}
}

// A rank killed mid-run takes the run down: the parent exits non-zero well
// before any watchdog, and no process of the group outlives it.
func TestKilledRankFailsTheRunAndLeavesNoProcess(t *testing.T) {
	t.Parallel()
	var out syncBuffer
	done := make(chan int, 1)
	// Large enough that the run is still going when the kill lands (the
	// input is generated after the mesh is up), small enough to stay cheap.
	go func() {
		done <- run(strings.Fields("-launch 3 -m 4096 -n 1024 -nb 64 -ib 16 -threads 1"), &out, &out)
	}()
	pids := map[string]int{}
	deadline := time.Now().Add(20 * time.Second)
	for len(pids) < 2 || !strings.Contains(out.String(), "[rank 1] qrfactor 1: mesh of 3 ranks up") {
		if time.Now().After(deadline) {
			t.Fatalf("mesh did not come up:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
		for _, m := range regexp.MustCompile(`rank (\d) is pid (\d+)`).FindAllStringSubmatch(out.String(), -1) {
			pids[m[1]], _ = strconv.Atoi(m[2])
		}
	}
	if err := syscall.Kill(pids["1"], syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code == 0 {
			t.Errorf("exit 0 with a rank killed:\n%s", out.String())
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("parent still running 20s after rank 1 was killed:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "rank 1: signal: killed") {
		t.Errorf("the launcher did not report the dead rank:\n%s", out.String())
	}
	for rank, pid := range pids {
		// The launcher reaped them, so the pids are free: ESRCH, not a zombie.
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("rank %s (pid %d) outlived the parent: %v", rank, pid, err)
		}
	}
}

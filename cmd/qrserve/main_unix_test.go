//go:build unix

package main

import (
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// The whole life of a launched fleet: the server starts one agent as a copy
// of itself, both serve a job, and SIGTERM ends them — exit 0, the agent
// exiting on the shutdown broadcast, no process left.
func TestLaunchedFleetServesAJobAndShutsDownClean(t *testing.T) {
	t.Parallel()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	portfile := filepath.Join(t.TempDir(), "port")
	var out syncBuffer
	cmd := exec.Command(exe, "-launch", "1", "-listen", "127.0.0.1:0", "-portfile", portfile, "-threads", "2", "-log-format", "json")
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()
	var addr []byte
	for deadline := time.Now().Add(20 * time.Second); len(addr) == 0; time.Sleep(5 * time.Millisecond) {
		if addr, _ = os.ReadFile(portfile); time.Now().After(deadline) {
			t.Fatalf("no portfile:\n%s", out.String())
		}
	}
	url := "http://" + strings.TrimSpace(string(addr))
	fetch := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := fetch(http.Get(url + "/healthz")); !strings.Contains(body, `"ranks":2`) || !strings.Contains(body, `"ranks_live":2`) {
		t.Fatalf("/healthz: %s", body)
	}
	job := `{"m":512,"n":64,"nb":32,"ib":8,"seed":3,"wait":true}`
	if body := fetch(http.Post(url+"/v1/factorize", "application/json", strings.NewReader(job))); !strings.Contains(body, `"status":"done"`) ||
		!strings.Contains(body, `"ok":true`) || strings.Contains(body, `"messages":0,`) {
		t.Fatalf("job did not complete across both ranks: %s", body)
	}
	m := regexp.MustCompile(`rank 1 is pid (\d+)`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("the launcher did not log the agent's pid:\n%s", out.String())
	}
	agent, _ := strconv.Atoi(m[1])
	// -log-format json reached the agent with the rest of the argument list.
	if !strings.Contains(out.String(), `[rank 1] {"time"`) || !strings.Contains(out.String(), `"rank":1}`) {
		t.Errorf("the agent does not log rank-stamped JSON:\n%s", out.String())
	}

	cmd.Process.Signal(syscall.SIGTERM)
	err, exited = cmd.Wait(), true
	if err != nil {
		t.Errorf("exit on SIGTERM: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "[rank 1] qrserve 1: shutdown received, exiting") {
		t.Errorf("the agent did not leave on the shutdown broadcast:\n%s", out.String())
	}
	// The server reaped it, so the pid is free: ESRCH, not a zombie.
	if err := syscall.Kill(agent, 0); err != syscall.ESRCH {
		t.Errorf("agent (pid %d) outlived the server: %v", agent, err)
	}
}

// An agent whose server never appears gives up at the rendezvous timeout,
// logging under its rank, as JSON when asked to. Rank 0's port is held by a
// socket bound but never listening: nothing else can take the port while
// the test runs, and every connect to it is refused. Rank 1 listens on a
// port of the system's choosing, which no other rank needs to know.
func TestLoneAgentFailsAtRendezvous(t *testing.T) {
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
	rank0 := "127.0.0.1:" + strconv.Itoa(sa.(*syscall.SockaddrInet4).Port)
	start := time.Now()
	code, out := qrserve("-rank", "1", "-peers", rank0+",127.0.0.1:0", "-rendezvous", "1s", "-log-format", "json")
	if code != 1 || !strings.Contains(out, "qrserve 1: ") || !strings.Contains(out, "cannot reach rank 0") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("took %v to give up on a 1s rendezvous", d)
	}
}

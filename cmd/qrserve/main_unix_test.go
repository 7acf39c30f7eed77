//go:build unix

package main

import (
	"fmt"
	"io"
	"net"
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

// serveInProcess runs the command in this process with args plus an
// ephemeral listen address, and returns once it serves HTTP: its output, the
// address it serves on, and stop, which sends this process SIGTERM — the
// command's own signal context takes it — and returns the exit code. Callers
// are not parallel: a test in flight elsewhere that runs the command
// in-process would take the signal too.
func serveInProcess(t *testing.T, args ...string) (out *syncBuffer, addr string, stop func() int) {
	t.Helper()
	portfile := filepath.Join(t.TempDir(), "port")
	out = &syncBuffer{}
	code := make(chan int, 1)
	go func() {
		code <- run(append(args, "-listen", "127.0.0.1:0", "-portfile", portfile, "-threads", "1"), out, out)
	}()
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if b, _ := os.ReadFile(portfile); len(b) > 0 && strings.Contains(out.String(), "serving on") {
			addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case c := <-code:
			t.Fatalf("exit %d before serving:\n%s", c, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("not serving after 20s:\n%s", out.String())
		}
	}
	stop = func() int {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case c := <-code:
			return c
		case <-time.After(30 * time.Second):
			t.Fatalf("no exit 30s after SIGTERM:\n%s", out.String())
			return -1
		}
	}
	return out, addr, stop
}

func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// -pprof-addr serves the profiles on a listener of their own, and the
// listener closes when the command returns: run leaves no socket behind.
func TestPprofServesAndClosesWithTheCommand(t *testing.T) {
	out, _, stop := serveInProcess(t, "-pprof-addr", "127.0.0.1:0")
	m := regexp.MustCompile(`pprof on http://(\S+)/debug/pprof/`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no pprof address logged:\n%s", out.String())
	}
	if code := getStatus(t, fmt.Sprintf("http://%s/debug/pprof/cmdline", m[1])); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d", code)
	}
	if code := stop(); code != 0 {
		t.Fatalf("exit %d on SIGTERM:\n%s", code, out.String())
	}
	if c, err := net.Dial("tcp", m[1]); err == nil {
		c.Close()
		t.Errorf("the pprof listener on %s outlived the command", m[1])
	}
}

// A pprof address the command cannot listen on is logged, and the command
// serves jobs all the same.
func TestUnusablePprofAddressStillServes(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	out, addr, stop := serveInProcess(t, "-pprof-addr", taken.Addr().String())
	if !strings.Contains(out.String(), "pprof: ") {
		t.Errorf("no pprof error logged:\n%s", out.String())
	}
	if code := getStatus(t, "http://"+addr+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz: status %d", code)
	}
	if code := stop(); code != 0 {
		t.Fatalf("exit %d on SIGTERM:\n%s", code, out.String())
	}
}

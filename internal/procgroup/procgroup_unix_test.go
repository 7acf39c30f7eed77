//go:build unix

package procgroup

import (
	"bufio"
	"errors"
	"io"
	"os"
	"os/exec"
	"testing"
	"time"
)

// family starts a shell with a background grandchild, both holding the write
// end of a pipe, and returns the read end once the grandchild is running: it
// reads EOF only when every process of the family is dead — however they are
// reaped, whoever their parent has become.
func family(t *testing.T, g *Group) *os.File {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	cmd := exec.Command("sh", "-c", "sleep 60 & echo ready; wait")
	cmd.Stdout = w
	err = g.Start(cmd)
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	go cmd.Wait()
	r.SetReadDeadline(time.Now().Add(10 * time.Second))
	if line, err := bufio.NewReader(r).ReadString('\n'); err != nil || line != "ready\n" {
		t.Fatalf("family did not come up: %q, %v", line, err)
	}
	return r
}

func allDead(t *testing.T, r *os.File, how string) {
	t.Helper()
	r.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := r.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("%s did not reach the grandchild's process group: read %v, want EOF", how, err)
	}
}

func TestKillReachesGrandchildrenAndIsSticky(t *testing.T) {
	g := New()
	if g.Killed() {
		t.Fatal("a new group reads killed")
	}
	r := family(t, g)
	g.Kill()
	allDead(t, r, "Kill")
	g.Kill() // idempotent
	if !g.Killed() {
		t.Fatal("Killed() false after Kill")
	}
	late := exec.Command("sh", "-c", "exit 0")
	if err := g.Start(late); !errors.Is(err, errKilled) || late.Process != nil {
		t.Fatalf("Start after Kill: err %v, process %v; want a refusal before anything runs", err, late.Process)
	}
	if !g.Killed() {
		t.Fatal("Killed() is not sticky")
	}
}

func TestTermReachesGrandchildren(t *testing.T) {
	g := New()
	defer g.Kill()
	r := family(t, g)
	g.Term()
	allDead(t, r, "Term")
	if g.Killed() {
		t.Fatal("Term marked the group killed")
	}
}

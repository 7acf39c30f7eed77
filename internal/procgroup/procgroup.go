// Package procgroup supervises launched child processes as one unit. The
// launcher (mesh.Launch, behind -launch) spawns one process per rank;
// if the parent dies or any rank fails, the rest must not linger as orphans
// holding ports and CPUs. On Unix every child is started in its own process
// group, so Kill reaches the child and anything it spawned; elsewhere it
// degrades to killing the direct child.
package procgroup

import (
	"errors"
	"os/exec"
	"sync"
)

var errKilled = errors.New("procgroup: group already killed")

// Group tracks started commands and kills them together.
type Group struct {
	mu     sync.Mutex
	cmds   []*exec.Cmd
	killed bool
}

func New() *Group { return &Group{} }

// Start configures cmd for group supervision (own process group on Unix)
// and starts it. After the group was killed, Start refuses new children; a
// Kill that arrives meanwhile waits out the fork, so no straggler escapes it.
func (g *Group) Start(cmd *exec.Cmd) error {
	setup(cmd)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.killed {
		return errKilled
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	g.cmds = append(g.cmds, cmd)
	return nil
}

// Term sends the polite termination signal (SIGTERM on Unix) to every
// child's process group, giving them a chance to exit cleanly.
func (g *Group) Term() {
	g.mu.Lock()
	cmds := append([]*exec.Cmd(nil), g.cmds...)
	g.mu.Unlock()
	for _, c := range cmds {
		term(c)
	}
}

// Kill forcibly terminates every child (and, on Unix, each child's whole
// process group). Idempotent; safe from signal handlers and deferred exit
// paths alike.
func (g *Group) Kill() {
	g.mu.Lock()
	g.killed = true
	cmds := append([]*exec.Cmd(nil), g.cmds...)
	g.mu.Unlock()
	for _, c := range cmds {
		kill(c)
	}
}

// Killed reports whether Kill was called, so exit paths can tell expected
// child deaths from real failures.
func (g *Group) Killed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.killed
}

// Package mesh is the one way a command stands up a process mesh. The
// programs are SPMD, as the paper's runtime is: one executable, and its rank
// alone decides what a process runs. So there are two halves, both here: the
// flags by which a process learns its rank and its peers (with their
// environment fallback and the link-resilience settings every rank must agree
// on) and their way to transport.DialTCP; and the launcher behind -launch N,
// which makes the calling process rank 0 and re-executes its own binary, with
// its own argument list, once per remaining rank — a launch path that cannot
// drop a flag, and needs no second binary to be found.
package mesh

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"pulsarqr/internal/transport"
)

// Flags are the settings by which one process joins a TCP mesh.
type Flags struct {
	Rank       int    // -1 until the command line, the environment or Resolve's default gives one
	Peers      string // comma-separated host:port of every rank
	Rendezvous time.Duration
	Reconnect  time.Duration
	Heartbeat  time.Duration
	env        string
	fs         *flag.FlagSet
	ln         net.Listener // this rank's, when Launch bound it beforehand
}

// Register declares -rank, -peers, -rendezvous, -reconnect and -heartbeat on
// fs. -rank and -peers fall back to the variables env_RANK and env_PEERS,
// the rendezvous convention process launchers usually want; ranks says what
// the ranks of this command are.
func Register(fs *flag.FlagSet, env, ranks string) *Flags {
	f := &Flags{env: env, fs: fs}
	fs.IntVar(&f.Rank, "rank", -1, "this process's rank in the mesh: "+ranks+" (env "+env+"_RANK)")
	fs.StringVar(&f.Peers, "peers", "", "join a mesh: comma-separated host:port of every rank, own rank included (env "+env+"_PEERS)")
	fs.DurationVar(&f.Rendezvous, "rendezvous", 30*time.Second, "mesh setup timeout")
	fs.DurationVar(&f.Reconnect, "reconnect", 0, "survive transient link drops: redial dead connections for up to this long (0 = fail fast; must match on every rank)")
	fs.DurationVar(&f.Heartbeat, "heartbeat", 0, "probe idle links at this interval and declare silent peers dead (0 = off; requires -reconnect)")
	return f
}

// Resolve, called once the flags are parsed, applies the environment fallback
// and reports whether a mesh was asked for at all; if so the rank has been
// checked against the peer list. launching says the caller is about to
// Launch: the peer list is then the launcher's to make, and the argument
// list, which Launch appends flags to, must hold nothing but flags. defRank
// is the rank of a process that was given peers and no rank (-1: there is
// none, refuse).
func (f *Flags) Resolve(launching bool, defRank int) (bool, error) {
	if f.fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected argument %q", f.fs.Arg(0))
	}
	if launching {
		return true, nil
	}
	if f.Peers == "" {
		f.Peers = os.Getenv(f.env + "_PEERS")
	}
	if f.Peers == "" {
		if f.Rank >= 0 {
			return false, fmt.Errorf("-rank %d without a peer list: pass -peers or set %s_PEERS", f.Rank, f.env)
		}
		return false, nil
	}
	if f.Rank < 0 {
		f.Rank = defRank
		if v := os.Getenv(f.env + "_RANK"); v != "" {
			r, err := strconv.Atoi(v)
			if err != nil {
				return false, fmt.Errorf("%s_RANK: %w", f.env, err)
			}
			f.Rank = r
		}
	}
	if n := strings.Count(f.Peers, ",") + 1; f.Rank < 0 || f.Rank >= n {
		return false, fmt.Errorf("rank %d outside peer list of %d", f.Rank, n)
	}
	return true, nil
}

// Dial joins the mesh as the resolved rank and returns once every peer is
// connected. ctx abandons the rendezvous — a signal, or a launched rank that
// died, must not wait out the timeout.
func (f *Flags) Dial(ctx context.Context, logf func(string, ...any)) (transport.Endpoint, error) {
	var ep transport.Endpoint
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		ep, err = transport.DialTCP(transport.TCPConfig{
			Rank:              f.Rank,
			Peers:             strings.Split(f.Peers, ","),
			Listener:          f.ln,
			RendezvousTimeout: f.Rendezvous,
			Reconnect:         f.Reconnect,
			HeartbeatInterval: f.Heartbeat,
			Logf:              logf,
		})
	}()
	select {
	case <-done:
		return ep, err
	case <-ctx.Done():
		go func() { // the rendezvous runs out on its own; release what it leaves
			<-done
			if ep != nil {
				ep.Close()
			}
		}()
		return nil, fmt.Errorf("mesh setup abandoned: %w", context.Cause(ctx))
	}
}

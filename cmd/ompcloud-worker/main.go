// Command ompcloud-worker is a standalone loop-body execution server: the
// worker half of the paper's fat binary. It links the same kernel registry
// as the host tools (internal/kernels) and executes the tiles the cloud
// device ships to it over TCP — a literal process boundary in place of JNI.
//
//	ompcloud-worker -addr 127.0.0.1:9401 &
//	ompcloud-worker -addr 127.0.0.1:9402 &
//	ompcloud-run -bench gemm -n 384 -cores 32 -workers 127.0.0.1:9401,127.0.0.1:9402
//
// With -register the worker joins a service daemon's pool instead of being
// statically addressed: it registers its address and core count, renews a
// liveness lease by heartbeat, re-registers if the daemon forgot it (a
// restarted daemon has an empty registry), and deregisters on SIGTERM so
// the pool shrinks immediately instead of waiting out the lease.
//
// On SIGTERM or SIGINT the worker drains: it stops accepting, closes idle
// pooled connections, and lets tiles already inside their kernel finish and
// answer (up to drainGrace) before it exits.
//
//	ompcloud-offloadd -addr 127.0.0.1:9500 &
//	ompcloud-worker -addr 127.0.0.1:9401 -register 127.0.0.1:9500 &
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ompcloud/internal/fatbin"
	_ "ompcloud/internal/kernels" // link the benchmark kernels
	"ompcloud/internal/remoteexec"
	"ompcloud/internal/serve"
)

// drainGrace is how long a shutdown waits for tiles in flight: past it the
// driver sees a transport error and re-executes them elsewhere.
const drainGrace = 30 * time.Second

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9401", "listen address")
		register = flag.String("register", "", "service daemon address to join (empty = static)")
		cores    = flag.Int("cores", 0, "task slots to advertise (0 = machine cores)")
		beatMS   = flag.Int("heartbeat-ms", 1000, "lease renewal period when registered")
	)
	flag.Parse()

	w, err := remoteexec.Serve(*addr, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("ompcloud-worker: serving on %s (%d kernels linked)\n",
		w.Addr(), len(fatbin.Default.Names()))

	slots := *cores
	if slots <= 0 {
		slots = runtime.NumCPU()
	}

	stop := make(chan struct{})
	beatsDone := make(chan struct{})
	var daemon *serve.Client
	if *register != "" {
		daemon, err = serve.DialFront(*register)
		if err != nil {
			fatal(err)
		}
		if err := daemon.Register(w.Addr(), slots); err != nil {
			fatal(err)
		}
		fmt.Printf("ompcloud-worker: registered with %s (%d slots)\n", *register, slots)
		go heartbeatLoop(daemon, w.Addr(), slots, time.Duration(*beatMS)*time.Millisecond, stop, beatsDone)
	} else {
		close(beatsDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(stop)
	<-beatsDone
	if daemon != nil {
		// Clean exit: leave the pool now rather than letting the lease
		// time out with this address still counted as capacity.
		if err := daemon.Deregister(w.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "ompcloud-worker: deregister:", err)
		}
		daemon.Close()
	}
	if err := w.Drain(drainGrace); err != nil {
		fatal(err)
	}
	fmt.Printf("ompcloud-worker: shut down after %d tiles\n", w.Served())
}

// heartbeatLoop renews the worker's lease; an "unknown" reply means the
// daemon restarted (its registry is journal-free by design — workers are
// expected to re-announce), so the worker re-registers.
func heartbeatLoop(c *serve.Client, addr string, slots int, period time.Duration, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			known, err := c.Heartbeat(addr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ompcloud-worker: heartbeat:", err)
				continue
			}
			if !known {
				if err := c.Register(addr, slots); err != nil {
					fmt.Fprintln(os.Stderr, "ompcloud-worker: re-register:", err)
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ompcloud-worker:", err)
	os.Exit(1)
}

package dist

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sync"
)

// In-process fabric: N workers talking to one coordinator over net.Pipe
// — the full RPC protocol, lease machinery, and fault surface with no
// sockets. This is the chaos-test harness and the `mayafleet coordinate
// -inproc N` mode; a killed in-proc worker is modelled as a hard cancel
// of its context with no Complete (everything a SIGKILL looks like from
// the coordinator's side: heartbeats stop, the lease expires).

// InprocWorker describes one worker of an in-process fabric.
type InprocWorker struct {
	Opts WorkerOptions
}

// RunFabric drives coord and n in-process workers to completion:
// workers[i].Opts configures the i-th worker (its Kill, when nil, is
// replaced by a hard cancel of that worker — the in-proc SIGKILL). It
// returns the coordinator's report once every cell is resolved and every
// worker has left, or once ctx ends; worker transport errors are
// collected but non-fatal (a dead worker is exactly what the fabric
// tolerates). Workers leave on the coordinator's dismissal, the Done
// reply to their next lease request, so a worker's last Complete always
// gets its reply; only the end of ctx cancels them.
func RunFabric(ctx context.Context, coord *Coordinator, workers []InprocWorker) (Report, error) {
	srv, err := coord.NewServer()
	if err != nil {
		return Report{}, err
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		coord.Serve(ctx)
	}()

	errs := make([]error, len(workers))
	for i := range workers {
		cliConn, srvConn := net.Pipe()
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.ServeConn(srvConn)
		}()
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			client := rpc.NewClient(conn)
			defer client.Close()
			wctx, wcancel := context.WithCancel(ctx)
			defer wcancel()
			opts := workers[i].Opts
			if opts.Kill == nil {
				// The in-proc SIGKILL: the worker's context dies, its
				// heartbeats stop, and no Complete is ever sent. The
				// coordinator sees exactly what a kill -9 produces.
				opts.Kill = wcancel
			}
			w, werr := NewWorker(wctx, client, opts)
			if werr != nil {
				errs[i] = werr
				return
			}
			if rerr := w.Run(wctx); rerr != nil {
				errs[i] = fmt.Errorf("worker %s: %w", w.ID(), rerr)
			}
		}(i, cliConn)
	}

	// The run ends when every cell resolves or the caller cancels;
	// either way Done closes (Serve closes it on cancellation), and
	// every worker then leaves: dismissed at its next lease request,
	// fenced off at its next heartbeat if it still runs a cell, or
	// cancelled with ctx.
	wg.Wait()

	for i, werr := range errs {
		if werr != nil {
			coord.logf("in-proc worker %d transport error: %v", i, werr)
		}
	}
	return coord.Report(), ctx.Err()
}

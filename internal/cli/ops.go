package cli

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"msc/internal/obs"
	"msc/internal/telemetry"
)

// OpsFlags is the shared -ops flag family every msc command registers via
// AddOpsFlags. The plane is entirely opt-in: with -ops unset (and no
// -metrics-dump), Start returns a nil *OpsPlane whose methods are all
// no-ops, and the solver hot paths keep their zero-overhead contract.
type OpsFlags struct {
	// Addr is the -ops listen address ("127.0.0.1:9090"; port 0 picks a
	// free port). Empty disables the HTTP server.
	Addr string
	// AddrFile is -ops-addr-file: when set, the resolved listen address is
	// written there once the server is up — the handshake harnesses and the
	// sweep orchestrator use with port 0.
	AddrFile string
	// FlightN is -flight-recorder: the flight-recorder ring capacity in
	// events; 0 disables the recorder.
	FlightN int
	// FlightDump is -flight-dump: where SIGQUIT / panic dumps go; empty
	// defaults to <cmd>-flight.jsonl in the working directory.
	FlightDump string
	// MetricsDump is -metrics-dump: when set, Close writes the final
	// /metrics exposition there — the deterministic harvest path for
	// short-lived children (no scrape race with process exit).
	MetricsDump string
}

// AddOpsFlags registers the ops flag family on fs.
func AddOpsFlags(fs *flag.FlagSet) *OpsFlags {
	o := &OpsFlags{}
	fs.StringVar(&o.Addr, "ops", "", "serve ops endpoints (/metrics, /healthz, /events, /debug/pprof) on this address (e.g. 127.0.0.1:9090; port 0 picks a free port)")
	fs.StringVar(&o.AddrFile, "ops-addr-file", "", "write the resolved -ops listen address to this file once serving")
	fs.IntVar(&o.FlightN, "flight-recorder", 1024, "flight recorder capacity in events (dumped on SIGQUIT, on solver panic, and via /debug/flightrecorder); 0 disables")
	fs.StringVar(&o.FlightDump, "flight-dump", "", "flight recorder dump path (default <cmd>-flight.jsonl)")
	fs.StringVar(&o.MetricsDump, "metrics-dump", "", "write the final /metrics exposition to this file at exit")
	return o
}

// enabled reports whether any part of the plane was requested.
func (o *OpsFlags) enabled() bool {
	return o.Addr != "" || o.MetricsDump != ""
}

// OpsPlane is a running observability plane: the event fanout solver sinks
// route through, the flight-recorder ring, the ops HTTP server, and the
// SIGQUIT dump handler. A nil *OpsPlane is valid and inert, so commands
// can call its methods unconditionally.
type OpsPlane struct {
	cmd      string
	flags    *OpsFlags
	fanout   *telemetry.FanoutSink
	recorder *telemetry.RingSink
	server   *obs.Server
	sigCh    chan os.Signal
	sigDone  chan struct{}
	dumpOnce sync.Once // a panic dump suppresses the redundant exit dump
	closed   sync.Once
	closeErr error
}

// Start brings the plane up: it enables obs collection, builds the fanout
// and (when FlightN > 0) the recorder ring, starts the HTTP server when
// Addr is set, and installs the SIGQUIT dump handler. It returns (nil,
// nil) when the flags request nothing.
func (o *OpsFlags) Start(cmd string) (*OpsPlane, error) {
	if !o.enabled() {
		return nil, nil
	}
	p := &OpsPlane{cmd: cmd, flags: o, fanout: telemetry.NewFanout()}
	if o.FlightN > 0 {
		p.recorder = telemetry.NewRing(o.FlightN)
		p.fanout.Attach(p.recorder)
	}
	obs.SetEnabled(true)
	if o.Addr != "" {
		srv, err := obs.StartServer(o.Addr, obs.ServerOptions{
			Registry: obs.Default(),
			Events:   p.fanout,
			Recorder: p.recorder,
		})
		if err != nil {
			return nil, err
		}
		p.server = srv
		if o.AddrFile != "" {
			if err := os.WriteFile(o.AddrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
				srv.Close()
				return nil, fmt.Errorf("write -ops-addr-file: %w", err)
			}
		}
		fmt.Fprintf(os.Stderr, "%s: ops server listening on http://%s\n", cmd, srv.Addr())
	}
	if p.recorder != nil {
		// SIGQUIT dumps the flight recorder and keeps running. This replaces
		// Go's default dump-goroutines-and-die behavior — goroutine stacks
		// remain available via /debug/pprof/goroutine.
		p.sigCh = make(chan os.Signal, 1)
		p.sigDone = make(chan struct{})
		signal.Notify(p.sigCh, syscall.SIGQUIT)
		go func() {
			defer close(p.sigDone)
			for range p.sigCh {
				p.dump("SIGQUIT")
			}
		}()
	}
	return p, nil
}

// Sink returns the plane's event fanout as a telemetry.Sink, or nil on a
// nil plane — directly usable as the "is tracing on" sentinel the commands
// already key their sink wiring off.
func (p *OpsPlane) Sink() telemetry.Sink {
	if p == nil {
		return nil
	}
	return p.fanout
}

// Attach adds a sink to the plane's fanout. No-op on a nil plane.
func (p *OpsPlane) Attach(s telemetry.Sink) {
	if p != nil {
		p.fanout.Attach(s)
	}
}

// dumpPath resolves the flight-dump destination.
func (p *OpsPlane) dumpPath() string {
	if p.flags.FlightDump != "" {
		return p.flags.FlightDump
	}
	return p.cmd + "-flight.jsonl"
}

// dump writes the flight-recorder contents, logging outcome to stderr.
func (p *OpsPlane) dump(reason string) {
	if p.recorder == nil {
		return
	}
	path := p.dumpPath()
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: flight recorder (%s): %v\n", p.cmd, reason, err)
		return
	}
	n, werr := p.recorder.WriteJSONL(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "%s: flight recorder (%s): %v\n", p.cmd, reason, werr)
		return
	}
	fmt.Fprintf(os.Stderr, "%s: flight recorder (%s): dumped %d events to %s\n", p.cmd, reason, n, path)
}

// Recover is the plane's panic hook: deferred around a solver invocation,
// it dumps the flight recorder when the call panics (a shard panic
// re-raised by ParallelFor, say) and re-panics so the crash still
// surfaces. On a nil plane, or without a panic, it does nothing — it must
// not swallow the recover of an enclosing handler.
func (p *OpsPlane) Recover() {
	if p == nil {
		return
	}
	r := recover()
	if r == nil {
		return
	}
	p.dumpOnce.Do(func() { p.dump("panic") })
	panic(r)
}

// Close tears the plane down: stops the SIGQUIT handler, shuts down the
// HTTP server, and writes the -metrics-dump exposition. Idempotent; safe
// on a nil plane.
func (p *OpsPlane) Close() error {
	if p == nil {
		return nil
	}
	p.closed.Do(func() {
		if p.sigCh != nil {
			signal.Stop(p.sigCh)
			close(p.sigCh)
			<-p.sigDone
		}
		if p.server != nil {
			p.closeErr = p.server.Close()
		}
		if p.flags.MetricsDump != "" {
			f, err := os.Create(p.flags.MetricsDump)
			if err == nil {
				err = obs.Default().WritePrometheus(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil && p.closeErr == nil {
				p.closeErr = fmt.Errorf("write -metrics-dump: %w", err)
			}
		}
	})
	return p.closeErr
}

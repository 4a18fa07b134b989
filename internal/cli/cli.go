// Package cli holds the flag plumbing shared by every msc command:
// a -version flag backed by the module build info, and the pprof/trace
// profiling flag trio (-cpuprofile, -memprofile, -trace).
//
// It depends only on the standard library and deliberately knows nothing
// about the solver; commands wire it up in three lines:
//
//	prof := cli.AddProfileFlags(flag.CommandLine)
//	version := flag.Bool("version", false, "print version and exit")
//	flag.Parse()
//	if *version { fmt.Println(cli.Version("mscplace")); return nil }
//	stop, err := prof.Start()
//	if err != nil { return err }
//	defer stop()
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"strings"
)

// Version formats a one-line version banner for the named command from
// runtime/debug.ReadBuildInfo: module version (when built as a versioned
// module), VCS revision, and VCS commit time, each omitted when the build
// carries no such stamp (e.g. plain `go build` in a work tree without VCS
// metadata keeps only the Go version).
func Version(cmd string) string {
	var b strings.Builder
	b.WriteString(cmd)
	info, ok := debug.ReadBuildInfo()
	if !ok {
		b.WriteString(" (no build info)")
		return b.String()
	}
	if v := info.Main.Version; v != "" && v != "(devel)" {
		b.WriteString(" ")
		b.WriteString(v)
	} else {
		b.WriteString(" (devel)")
	}
	var rev, modified, vtime string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value
		case "vcs.time":
			vtime = s.Value
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		b.WriteString(" ")
		b.WriteString(rev)
		if modified == "true" {
			b.WriteString("+dirty")
		}
	}
	if vtime != "" {
		b.WriteString(" (")
		b.WriteString(vtime)
		b.WriteString(")")
	}
	b.WriteString(" ")
	b.WriteString(info.GoVersion)
	return b.String()
}

// AddDistBackendFlag registers the -dist-backend flag shared by the
// solver-facing commands and returns the pointer receiving its value
// after fs.Parse. The package stays solver-agnostic: values are plain
// strings here, validated by the command via msc.ParseDistBackend /
// core.ParseDistBackend.
func AddDistBackendFlag(fs *flag.FlagSet) *string {
	return fs.String("dist-backend", "auto",
		"distance backend: auto|bounded, both the bounded d_t-ball table every instance runs on (kept for compatibility; the dense backend was removed)")
}

// AddSurviveFlag registers the -survive flag shared by the solver-facing
// commands and returns the pointer receiving its value after fs.Parse.
// Values stay plain strings here and are validated by the command via
// msc.ParseSurvivability / core.ParseSurvivability.
func AddSurviveFlag(fs *flag.FlagSet) *string {
	return fs.String("survive", "auto",
		"survivability mode: auto|none|shortcut|node (shortcut/node optimize the worst-case σ⁻ over all single shortcut or node failures, breaking ties by fault-free σ)")
}

// AddCostModelFlag registers the -cost-model flag shared by the
// budget-aware commands and returns the pointer receiving its value after
// fs.Parse. Values stay plain strings here and are validated by the
// command via msc.ParseCostModel / core.ParseCostModel.
func AddCostModelFlag(fs *flag.FlagSet) *string {
	return fs.String("cost-model", "auto",
		"shortcut cost model for -budget runs: auto|unit|length|table (unit prices every shortcut at 1; length prices by bridged distance; table reads per-pair prices from -cost-table)")
}

// Profile carries the three profiling flag values registered by
// AddProfileFlags. The zero value (no flags set) is a no-op profile.
type Profile struct {
	CPUProfile string
	MemProfile string
	Trace      string
}

// AddProfileFlags registers -cpuprofile, -memprofile, and -trace on the
// given flag set and returns the Profile that receives their values after
// fs.Parse.
func AddProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPUProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&p.MemProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&p.Trace, "trace", "", "write a runtime execution trace to this file")
	return p
}

// Start begins whichever profiles were requested and returns a stop
// function that must run exactly once before the process exits (defer it).
// The stop function finishes the CPU profile and trace and takes the heap
// snapshot, so profiles cover everything between Start and stop. When no
// profiling flags were set both Start and stop are no-ops.
func (p *Profile) Start() (stop func(), err error) {
	var stops []func()
	fail := func(err error) (func(), error) {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		return nil, err
	}
	if p.CPUProfile != "" {
		f, err := os.Create(p.CPUProfile)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("start CPU profile: %w", err))
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if p.Trace != "" {
		f, err := os.Create(p.Trace)
		if err != nil {
			return fail(err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("start execution trace: %w", err))
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	if p.MemProfile != "" {
		path := p.MemProfile
		stops = append(stops, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "memprofile:", err)
			}
		})
	}
	return func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}, nil
}

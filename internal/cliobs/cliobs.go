// Package cliobs wires the -trace / -metrics / -metrics-format / -v
// telemetry flags, the -serve live-telemetry flag, the -faults
// fault-injection flag, the -profile-report cost-attribution flag, the
// -ranker diagnosis-formula flag and the -executor / -resume / -worker-bin
// durable-execution flags shared by the command-line binaries onto the
// internal/obs, internal/obshttp, internal/faultinj, internal/prof,
// internal/core, internal/harness and internal/artifact layers.
package cliobs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"stmdiag/internal/artifact"
	"stmdiag/internal/core"
	"stmdiag/internal/faultinj"
	"stmdiag/internal/harness"
	"stmdiag/internal/obs"
	"stmdiag/internal/obshttp"
	"stmdiag/internal/prof"
)

// MaybeTrialWorker turns this process into a trial worker when the
// STMDIAG_TRIAL_WORKER environment marker is set: it runs the worker
// protocol loop on stdin/stdout and exits. Every binary that can drive a
// trial pool calls this first in main, so any of them doubles as the
// subprocess executor's worker (-worker-bin defaults to the current
// executable). A no-op in normal runs.
func MaybeTrialWorker() {
	if os.Getenv(harness.WorkerEnv) == "" {
		return
	}
	if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trial worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// Metrics output formats accepted by -metrics-format.
const (
	FormatText = "text"
	FormatJSON = "json"
	FormatProm = "prom"
	// FormatDetJSON is the deterministic subset: the JSON snapshot with
	// every wall-clock/scheduling-variant family (obs.IsVolatile) filtered
	// out, so output is byte-identical across -jobs values and executors.
	FormatDetJSON = "detjson"
)

// Flags holds the parsed telemetry flags.
type Flags struct {
	// TracePath is the -trace destination ("" = tracing off).
	TracePath string
	// Metrics prints a metrics snapshot after the run (-metrics).
	Metrics bool
	// MetricsFormat selects the -metrics rendering: text (default), json,
	// or prom (OpenMetrics exposition).
	MetricsFormat string
	// Verbose raises trace detail to per-branch/per-coherence events (-v).
	Verbose bool
	// Faults is the raw -faults fault-injection spec ("" = off); parse it
	// with FaultSpec after flag.Parse.
	Faults string
	// ServeAddr is the -serve listen address ("" = no telemetry server).
	ServeAddr string
	// ServeAddrFile is the -serve-addr-file destination: the bound listen
	// address is written there once the server is up ("" = don't), so
	// scripts using -serve :0 can find the port without parsing logs.
	ServeAddrFile string
	// FlightRec arms the in-memory flight recorder on the run's sink
	// (-flightrec; on by default whenever telemetry is on).
	FlightRec bool
	// ProfileReport is the -profile-report top-K: >0 arms the
	// cost-attribution profiler and renders a K-row hot-spot report on
	// stderr after the run; 0 (the default) leaves profiling off.
	ProfileReport int

	server *obshttp.Server
}

// Register installs -trace, -metrics, -metrics-format, -v, -faults, -serve
// and -flightrec on the default flag set. Call before flag.Parse.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.TracePath, "trace", "", "write a Chrome trace_event JSON trace (chrome://tracing, Perfetto) to this `file`")
	flag.BoolVar(&f.Metrics, "metrics", false, "print the telemetry counters after the run")
	flag.StringVar(&f.MetricsFormat, "metrics-format", FormatText, "render -metrics as `text`, json, detjson (deterministic families only) or prom (OpenMetrics)")
	flag.BoolVar(&f.Verbose, "v", false, "record fine-grained (per-branch, per-coherence-event) trace events")
	flag.StringVar(&f.Faults, "faults", "", "deterministic fault-injection `spec`, e.g. \"rate=0.01\" or \"lbr-drop=0.1,seed=7\" (\"off\" = none)")
	flag.StringVar(&f.ServeAddr, "serve", "", "serve live telemetry (/metrics, /trace, /tracez, /flightrecorder, /debug/pprof) on this `addr` during the run, e.g. :9090")
	flag.StringVar(&f.ServeAddrFile, "serve-addr-file", "", "write the -serve bound address to this `file` (scripts poll it instead of parsing logs)")
	flag.BoolVar(&f.FlightRec, "flightrec", true, "keep a flight recorder of recent harness events on the telemetry sink")
	flag.IntVar(&f.ProfileReport, "profile-report", 0, "render a top-`K` cost-attribution hot-spot report (opcodes, phases, alloc sites) on stderr after the run (0 = off)")
	return f
}

// Validate rejects malformed flag combinations; call right after
// flag.Parse and exit 2 on error.
func (f *Flags) Validate() error {
	if f.ProfileReport < 0 {
		return fmt.Errorf("-profile-report must be >= 0 (0 = off), got %d", f.ProfileReport)
	}
	if f.ServeAddrFile != "" && f.ServeAddr == "" {
		return fmt.Errorf("-serve-addr-file requires -serve")
	}
	switch f.MetricsFormat {
	case FormatText, FormatJSON, FormatDetJSON, FormatProm:
		return nil
	}
	return fmt.Errorf("-metrics-format must be %s, %s, %s or %s, got %q",
		FormatText, FormatJSON, FormatDetJSON, FormatProm, f.MetricsFormat)
}

// FaultSpec parses the -faults value. The zero spec (injection off) comes
// back for "" and "off".
func (f *Flags) FaultSpec() (faultinj.Spec, error) {
	spec, err := faultinj.ParseSpec(f.Faults)
	if err != nil {
		return faultinj.Spec{}, fmt.Errorf("-faults: %w", err)
	}
	return spec, nil
}

// CheckJobs validates a -jobs value: 0 means NumCPU and positive counts
// are worker counts, but negative values are malformed rather than a
// silent fallback.
func CheckJobs(jobs int) error {
	if jobs < 0 {
		return fmt.Errorf("-jobs must be >= 0 (0 = NumCPU), got %d", jobs)
	}
	return nil
}

// CheckRuns validates run-count flags, keyed by flag name (failruns,
// succruns, cbiruns, overhead): 0 selects the default count and positive
// values are counts, but a negative count is malformed. Left through, it
// would crash the capture or silently empty a column. The first offender
// in name order is reported.
func CheckRuns(runs map[string]int) error {
	names := make([]string, 0, len(runs))
	for name := range runs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if n := runs[name]; n < 0 {
			return fmt.Errorf("-%s must be >= 0 (0 = default), got %d", name, n)
		}
	}
	return nil
}

// RankerFlag holds the raw -ranker value shared by the diagnosis-driving
// binaries; Validate resolves it against core.Rankers.
type RankerFlag struct {
	// Name is the -ranker value (cbi, ochiai or tarantula).
	Name string
}

// RegisterRanker installs -ranker on the default flag set. Call before
// flag.Parse.
func RegisterRanker() *RankerFlag {
	f := &RankerFlag{}
	flag.StringVar(&f.Name, "ranker", core.RankerCBI.String(),
		"diagnosis scoring `formula`: cbi (the paper's harmonic mean), ochiai or tarantula")
	return f
}

// Validate rejects unknown ranker names; call right after flag.Parse and
// exit 2 on error.
func (f *RankerFlag) Validate() error {
	_, err := core.ParseRanker(f.Name)
	return err
}

// Ranker resolves the flag; call after Validate (unknown names fall back
// to the paper's CBI ranker).
func (f *RankerFlag) Ranker() core.Ranker {
	r, _ := core.ParseRanker(f.Name)
	return r
}

// Executor names accepted by -executor.
const (
	ExecInproc     = "inproc"
	ExecSubprocess = "subprocess"
)

// ExecFlags holds the parsed durable-execution flags: which executor runs
// the trials, where the durable artifact store lives, and which
// binary serves as the subprocess worker.
type ExecFlags struct {
	// Executor is the -executor choice: inproc (default) or subprocess.
	Executor string
	// Resume is the -resume artifact-store directory ("" = no persistence).
	// The directory is created if missing; an existing store resumes the
	// run, skipping trials whose results are already committed.
	Resume string
	// WorkerBin is the -worker-bin subprocess worker binary ("" = the
	// current executable).
	WorkerBin string
}

// RegisterExec installs -executor, -resume and -worker-bin on the default
// flag set. Call before flag.Parse.
func RegisterExec() *ExecFlags {
	f := &ExecFlags{}
	flag.StringVar(&f.Executor, "executor", ExecInproc,
		"trial execution `engine`: inproc (in this process) or subprocess (isolated worker processes)")
	flag.StringVar(&f.Resume, "resume", "",
		"durable artifact-store `dir`: persist trial results as they commit and resume a killed run from it")
	flag.StringVar(&f.WorkerBin, "worker-bin", "",
		"worker `binary` for -executor subprocess (default: this executable)")
	return f
}

// Validate rejects malformed execution flags; call right after flag.Parse
// and exit 2 on error.
func (f *ExecFlags) Validate() error {
	switch f.Executor {
	case ExecInproc, ExecSubprocess:
	default:
		return fmt.Errorf("-executor must be %s or %s, got %q", ExecInproc, ExecSubprocess, f.Executor)
	}
	if f.Resume != "" {
		if fi, err := os.Stat(f.Resume); err == nil && !fi.IsDir() {
			return fmt.Errorf("-resume %q is not a directory", f.Resume)
		}
	}
	if f.WorkerBin != "" && f.Executor != ExecSubprocess {
		return fmt.Errorf("-worker-bin requires -executor %s", ExecSubprocess)
	}
	return nil
}

// Build assembles the executor and artifact store the flags ask for; both
// are nil on the all-default path (in-process, no persistence). The store
// is armed with the run's fault spec so the artifact-layer injectors
// (artifact-torn-write, artifact-corrupt, journal-trunc) fire on it.
// Callers own Close on both.
func (f *ExecFlags) Build(sink *obs.Sink, faults faultinj.Spec, seed int64) (harness.Executor, *artifact.Store, error) {
	var exec harness.Executor
	if f.Executor == ExecSubprocess {
		e, err := harness.NewSubprocExecutor(harness.SubprocOptions{Bin: f.WorkerBin, Sink: sink})
		if err != nil {
			return nil, nil, err
		}
		exec = e
	}
	var store *artifact.Store
	if f.Resume != "" {
		s, err := artifact.Open(f.Resume, sink)
		if err != nil {
			if exec != nil {
				exec.Close()
			}
			return nil, nil, err
		}
		store = s.WithFaults(faults, seed)
	}
	return exec, store, nil
}

// FleetFlags holds the parsed -fleet-* flags shared by fleet-aware
// binaries (fleetd's store sizing and client-simulation shape).
type FleetFlags struct {
	// Shards is the profile store's lock-stripe count (-fleet-shards).
	Shards int
	// Clients is how many simulated machines a push fans out over
	// (-fleet-clients).
	Clients int
	// Batch is the per-client submissions-per-POST batch size
	// (-fleet-batch).
	Batch int
	// Retries bounds per-batch re-sends on 5xx (-fleet-retries).
	Retries int
}

// RegisterFleet installs the -fleet-* flags on the default flag set. Call
// before flag.Parse.
func RegisterFleet() *FleetFlags {
	f := &FleetFlags{}
	flag.IntVar(&f.Shards, "fleet-shards", 16, "profile-store lock stripes per app (1..4096)")
	flag.IntVar(&f.Clients, "fleet-clients", 4, "simulated machines a -push fans profiles over")
	flag.IntVar(&f.Batch, "fleet-batch", 64, "profile submissions per ingest POST")
	flag.IntVar(&f.Retries, "fleet-retries", 5, "max re-sends of one batch after a 5xx")
	return f
}

// Validate rejects malformed -fleet-* values; call right after flag.Parse
// and exit 2 on error.
func (f *FleetFlags) Validate() error {
	if f.Shards < 1 || f.Shards > 4096 {
		return fmt.Errorf("-fleet-shards must be in 1..4096, got %d", f.Shards)
	}
	if f.Clients < 1 {
		return fmt.Errorf("-fleet-clients must be >= 1, got %d", f.Clients)
	}
	if f.Batch < 1 {
		return fmt.Errorf("-fleet-batch must be >= 1, got %d", f.Batch)
	}
	if f.Retries < 0 {
		return fmt.Errorf("-fleet-retries must be >= 0, got %d", f.Retries)
	}
	return nil
}

// Sink builds the sink the flags ask for. It returns nil when every flag
// is off, keeping the disabled-telemetry path free. Metrics land in the
// process-wide registry so instrumentation-time counters (sites
// instrumented, bundles audited) appear in the same snapshot. A -serve
// run always gets a sink (the server needs something to expose), and any
// sink carries a pipeline flight recorder unless -flightrec=false.
func (f *Flags) Sink() *obs.Sink {
	if f.TracePath == "" && !f.Metrics && !f.Verbose && f.ServeAddr == "" && f.ProfileReport == 0 {
		return nil
	}
	s := obs.NewSink()
	if f.TracePath != "" || f.ServeAddr != "" {
		s.Trace = obs.NewTracer()
	}
	if f.Verbose {
		s.Verbosity = 1
	}
	if f.FlightRec {
		s.Flight = obs.NewFlightRecorder(obs.DefaultFlightCap)
	}
	// -profile-report needs the attribution counters. A -serve run serves
	// whatever else is armed but does not force-arm the profiler: per-opcode
	// attribution is by far the largest per-trial delta on the executor
	// wire (it alone nearly doubles the federated payload), so live runs
	// that want /profilez data add -profile-report explicitly.
	s.Profiling = f.ProfileReport > 0
	return s
}

// Start launches the -serve telemetry server over the run's sink; no-op
// without -serve. The bound address (useful with ":0") is announced on w.
func (f *Flags) Start(s *obs.Sink, w io.Writer) error {
	if f.ServeAddr == "" {
		return nil
	}
	srv := obshttp.New(s)
	if err := srv.Start(f.ServeAddr); err != nil {
		return err
	}
	f.server = srv
	if f.ServeAddrFile != "" {
		if err := os.WriteFile(f.ServeAddrFile, []byte(srv.Addr()+"\n"), 0o644); err != nil {
			return fmt.Errorf("cliobs: write -serve-addr-file: %w", err)
		}
	}
	fmt.Fprintf(w, "telemetry: serving /metrics /trace /tracez /flightrecorder /profilez /debug/pprof on http://%s\n", srv.Addr())
	return nil
}

// ServerAddr returns the live telemetry server's bound address ("" when
// -serve is off or Start has not run).
func (f *Flags) ServerAddr() string {
	if f.server == nil {
		return ""
	}
	return f.server.Addr()
}

// Finish writes the trace file, prints the metrics snapshot to w in the
// format -metrics-format asks for, and stops the -serve server.
func (f *Flags) Finish(s *obs.Sink, w io.Writer) error {
	if f.server != nil {
		f.server.SetReady(false)
		defer f.server.Close()
	}
	if s == nil {
		return nil
	}
	if f.TracePath != "" && s.Trace != nil {
		data, err := s.Trace.ChromeJSON()
		if err != nil {
			return fmt.Errorf("cliobs: encode trace: %w", err)
		}
		if err := os.WriteFile(f.TracePath, data, 0o644); err != nil {
			return fmt.Errorf("cliobs: write trace: %w", err)
		}
		fmt.Fprintf(w, "trace: %d events -> %s", s.Trace.Len(), f.TracePath)
		if d := s.Trace.Dropped(); d > 0 {
			fmt.Fprintf(w, " (%d dropped at limit)", d)
		}
		fmt.Fprintln(w)
	}
	if f.Metrics && s.Metrics != nil {
		snap := s.Metrics.Snapshot()
		switch f.MetricsFormat {
		case FormatJSON, FormatDetJSON:
			if f.MetricsFormat == FormatDetJSON {
				snap = snap.Deterministic()
			}
			data, err := snap.JSON()
			if err != nil {
				return fmt.Errorf("cliobs: encode metrics: %w", err)
			}
			w.Write(data) //nolint:errcheck // best-effort diagnostics
			fmt.Fprintln(w)
		case FormatProm:
			io.WriteString(w, snap.OpenMetrics()) //nolint:errcheck
		default:
			fmt.Fprint(w, snap.Text())
		}
	}
	if f.ProfileReport > 0 && s.Metrics != nil {
		io.WriteString(w, prof.FromSnapshot(s.Metrics.Snapshot()).Render(f.ProfileReport)) //nolint:errcheck
	}
	return nil
}

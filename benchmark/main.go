// Command benchmark is the repository's performance benchmark: four
// named workloads run against the unmodified system, verified, and
// reported as end-to-end metrics (tracing off) or, with -trace 1, as
// per-layer metrics from a separate traced run. See README.md for the
// glossary and BENCHMARK.json at the repository root for the contract.
//
//	bash benchmark/run.sh --workload serve-read --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	smoke    bool
	workdir  string
}

// instances is how many times a run with tracing off sets the workload
// up. Each instance is set up from the same seed and measured over the
// same stretch of the op stream, and every figure the run reports is
// the median over the instances: a slow spell of the machine that
// covers two of the five leaves the figure where it was, and what
// differs from one set of journal and page files to the next (the
// sandbox's fsync median moves by an eighth from file to file) is
// averaged inside the run.
const instances = 5

// allWorkloads builds the four workloads at full size, or at the size
// of a smoke run.
func allWorkloads(smoke bool) []workload {
	return []workload{serveRead(smoke), tenantsWrite(smoke), embedPaged(smoke), newLabelUpdates(smoke)}
}

// result is what one workload's run reports.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// stdout is where the report goes; the tests read it back.
var stdout io.Writer = os.Stdout

func printf(format string, args ...any) {
	// A failed write to standard output leaves nobody to tell.
	_, _ = fmt.Fprintf(stdout, format, args...)
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var opt options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&opt.workload, "workload", "", "workload to run: serve-read, tenants-write, embed-paged, label-updates (default: all four)")
	fs.Int64Var(&opt.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&opt.seconds, "seconds", runSeconds, "cap, in seconds, on the measured phases of a run taken together")
	fs.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	fs.StringVar(&opt.traceOut, "trace-out", "", "with -trace 1, write every span to this file as JSON lines")
	fs.BoolVar(&opt.smoke, "smoke", false, "phases of a fixed, small operation count and a short ladder: checks the machinery, measures nothing")
	fs.StringVar(&opt.workdir, "workdir", filepath.Join(".bench_build", "work"), "directory for journals and page files (created; emptied per run)")
	printContract := fs.Bool("print-contract", false, "print BENCHMARK.json as rendered from the metric tables and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printContract {
		b, err := contractJSON()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		printf("%s", b)
		return 0
	}
	if opt.trace != 0 && opt.trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace is 0 or 1")
		return 2
	}
	if opt.smoke {
		// Long enough that the cap never cuts a smoke phase short.
		opt.seconds = 60
	}
	if opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive")
		return 2
	}
	var chosen []workload
	for _, w := range allWorkloads(opt.smoke) {
		if opt.workload == "" || opt.workload == w.def().Name {
			chosen = append(chosen, w)
		}
	}
	if len(chosen) == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", opt.workload)
		return 2
	}
	printEnvironment()
	lt := &ladderTrace{tr: newTracer(), parents: map[rungID]rungID{}}
	code := 0
	for _, w := range chosen {
		res, err := runWorkload(w, opt, lt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.def().Name, err)
			return 2
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	if opt.trace == 1 && opt.traceOut != "" {
		if err := lt.tr.writeSpans(opt.traceOut, opt.workload, lt.parents); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
	}
	return code
}

// runWorkload sets the workload up and measures, verifies and closes
// it, once per instance; in the traced run, once, and then replays the
// ladder.
func runWorkload(w workload, opt options, lt *ladderTrace) (*result, error) {
	name := w.def().Name
	if err := os.MkdirAll(opt.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.workdir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	n := instances
	if opt.smoke || opt.trace == 1 {
		n = 1
	}
	// A phase is a fixed stretch of the op stream, so that every
	// instance of every run measures the same work (and, on the
	// one-caller workloads, count metrics repeat exactly); the seconds,
	// shared out among the instances, only cap it.
	length := time.Duration(opt.seconds * float64(time.Second) / float64(n))
	res := &result{Metrics: map[string]metricValue{}}
	per := map[string][]float64{}
	var reads, writes int
	var seconds float64
	for i := 0; i < n; i++ {
		m, p, wrong, err := runInstance(w, opt.seed, filepath.Join(dir, fmt.Sprintf("instance-%d", i)), length)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		res.Attempted += p.rec.attempted
		res.Failed += p.rec.failed + wrong
		reads, writes, seconds = reads+len(p.rec.reads.ns), writes+len(p.rec.writes.ns), seconds+p.seconds
		for _, msg := range p.errs {
			printf("# %s: failed operation: %s\n", name, msg)
		}
	}
	res.Correct = res.Failed == 0
	m := metricSet{}
	for k, vs := range per {
		m[k] = median(vs)
	}
	if opt.trace == 1 {
		lt.readP50US = m["client.read_p50_us"]
		if err := w.ladder(opt.seed, filepath.Join(dir, "ladder"), lt, m); err != nil {
			return nil, err
		}
	}

	printf("\nworkload %s seed %d instances %d phase %d ops per caller, %.2fs of at most %.0fs in all, closed-loop reads %d writes %d\n",
		name, opt.seed, n, w.phaseOps(), seconds, opt.seconds, reads, writes)
	printf("ops %s ops_attempted %d ops_failed %d\n", name, res.Attempted, res.Failed)
	// of lists the instances' values behind a median.
	of := func(metric string) string {
		if len(per[metric]) < 2 {
			return ""
		}
		return fmt.Sprintf(" of %.6g", per[metric])
	}
	for _, def := range endToEnd {
		printf("e2e %s %s %.6g %s %s %.2f%s\n", name, def.Name, m[def.Name], def.Unit, def.Better, def.Bound, of(def.Name))
	}
	for _, def := range perLayer {
		if v, ok := m[def.Name]; ok {
			printf("layer %s %s %.6g %s moves %s%s\n", name, def.Name, v, def.Unit, strings.Join(def.Moves, ","), of(def.Name))
		}
	}
	defs := endToEnd
	if opt.trace == 1 {
		defs = perLayer
	}
	for _, def := range defs {
		// A per-layer metric of a layer the workload does not have is
		// reported as 0: the driver wants every name on every run.
		res.Metrics[def.Name] = metricValue{Value: m[def.Name], Unit: def.Unit}
	}
	if opt.trace == 0 {
		for _, def := range endToEnd {
			if v := m[def.Name]; v <= 0 {
				return nil, fmt.Errorf("end-to-end metric %s is %v", def.Name, v)
			}
		}
	}
	for k := range m {
		if !isMetric(endToEnd, k) && !isMetric(perLayer, k) {
			return nil, errors.New("metric " + k + " is not in the contract tables")
		}
	}
	return res, nil
}

// runInstance sets the workload up under dir (the wall time of which
// is the instance's setup_s), measures one phase with tracing off and
// verifies it outside the timed region.
func runInstance(w workload, seed int64, dir string, length time.Duration) (m metricSet, p *phaseResult, wrong int, err error) {
	// Every set-up starts from a collected heap, so that what the
	// previous instance left behind does not decide whether a
	// collection falls inside this one's setup_s.
	runtime.GC()
	t0 := time.Now()
	in, err := w.setup(seed, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	m = metricSet{"setup_s": time.Since(t0).Seconds()}
	defer func() {
		if cerr := in.close(); err == nil {
			err = cerr
		}
	}()
	if p, err = in.run(length); err != nil {
		return nil, nil, 0, err
	}
	p.latencyMetrics(m)
	wrong, err = in.finish(p, m)
	return m, p, wrong, err
}

func isMetric(defs []metricDef, name string) bool {
	for _, def := range defs {
		if def.Name == name {
			return true
		}
	}
	return false
}

// printEnvironment records what the numbers were measured on. Load is
// never more than nproc callers; GOMAXPROCS is left at its default.
func printEnvironment() {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					model = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	printf("environment nproc %d gomaxprocs %d go %s os %s/%s cpu %q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, model)
	printf("environment fsync and page reads hit the sandbox's page cache, not a device\n")
}

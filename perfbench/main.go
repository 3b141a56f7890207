// Command perfbench measures how long ClusterBFT takes, on the host, to
// return a verified result for a paper workload, against the same
// script run unprotected ("Pure Pig"). One closed-loop client waits for
// each verified result before it sends the next Run to a long-lived
// assured system; every iteration also runs the script once on a fresh
// plain system loaded with the same data, whose sorted STORE outputs the
// assured outputs must equal.
//
// With -trace 0 it reports the end-to-end metrics, measured with no
// hook wrapped. With -trace 1 it runs an untraced and a traced assured
// system side by side, checks that they return identical Results,
// records spans around every wrapped engine/controller hook and every
// layer replay, writes the spans out, and reports per-layer metrics.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit status is
// non-zero when any job failed. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload follower-r4 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload to run")
	seed := fset.Int64("seed", 1, "input generation seed")
	seconds := fset.Int("seconds", 20, "measurement time in seconds")
	trace := fset.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	outDir := fset.String("out", ".bench_build", "directory for spill files and span dumps")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		return 2
	}
	spill := filepath.Join(*outDir, "spill")
	if err := os.MkdirAll(spill, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	opts := options{seed: *seed, duration: time.Duration(*seconds) * time.Second, spillDir: spill}

	var rep *report
	var err error
	if *trace == 1 {
		opts.spanFile = filepath.Join(*outDir, "spans-"+w.name+".tsv")
		rep, err = runTraced(w, opts)
	} else {
		rep, err = runUntraced(w, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !rep.correct() {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one invocation prints.
type report struct {
	workload  string
	attempted int
	failed    int
	// mismatch is set when the traced and untraced systems disagreed.
	mismatch string
	order    []string
	metrics  map[string]metric
	notes    []string
}

func newReport(w *benchWorkload) *report {
	return &report{workload: w.name, metrics: make(map[string]metric)}
}

func (r *report) add(name string, value float64, unit string) {
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 && r.mismatch == "" && r.attempted > 0 }

func (r *report) print(f *os.File) error {
	fmt.Fprintf(f, "workload %s\n", r.workload)
	for _, n := range r.notes {
		fmt.Fprintf(f, "  # %s\n", n)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Fprintf(f, "  %-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	if r.mismatch != "" {
		fmt.Fprintf(f, "  MISMATCH %s\n", r.mismatch)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	if err != nil {
		return err // a NaN or Inf metric: no result line
	}
	_, err = fmt.Fprintln(f, string(out))
	return err
}

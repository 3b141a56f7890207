package main

import (
	"strings"
	"testing"

	"clusterbft/internal/core"
)

func testOptions(t *testing.T, iterations int) options {
	t.Helper()
	return options{seed: 7, iterations: iterations, spillDir: t.TempDir()}
}

// The traced pass compares every traced Result (outputs, LatencyUs,
// Attempts, Metrics, ...) and the output records behind it with the
// untraced system's, job by job.
func TestTracedMatchesUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := runTraced(w, testOptions(t, 2))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Fatalf("failed %d/%d, mismatch %q, notes %v", rep.failed, rep.attempted, rep.mismatch, rep.notes)
			}
		})
	}
}

// The scheduler wrapper must forward ForgetSID: the controller forgets
// every attempt at teardown, so nothing may stay bound afterwards.
func TestSchedulerWrapperForwardsForgetSID(t *testing.T) {
	w, _ := findWorkload("follower-r4")
	ses, systems, err := setup(w, testOptions(t, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ses.close(systems)
	s := systems[0]
	inner := s.eng.Sched.(*core.OverlapScheduler)
	instrument(s, newTracer(), &recoveryCounts{})
	if js := runAssured(s, ses.w.script); failure(js) != "" {
		t.Fatal(failure(js))
	}
	if n := inner.HostedSIDs(); n != 0 {
		t.Fatalf("%d sub-graph bindings survive teardown behind the wrapper", n)
	}
}

// countMetric reports whether a metric is one the program counts or
// models deterministically: every count, byte size and virtual time
// except the Go runtime's, which follow GC timing.
func countMetric(name, unit string) bool {
	if strings.HasPrefix(name, "go.") {
		return false
	}
	return unit == "count" || unit == "B" || unit == "KiB" || unit == "vs"
}

// Count metrics must repeat exactly for a seed, however many jobs a run
// gets to measure.
func TestCountsRepeat(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			var reps [2][]*report
			for k, n := range []int{countWindow, countWindow + 2} {
				tr, err := runTraced(w, testOptions(t, n))
				if err != nil {
					t.Fatal(err)
				}
				un, err := runUntraced(w, testOptions(t, n))
				if err != nil {
					t.Fatal(err)
				}
				reps[k] = []*report{tr, un}
			}
			checked := 0
			for j := range reps[0] {
				a, b := reps[0][j], reps[1][j]
				for _, name := range a.order {
					m := a.metrics[name]
					if !countMetric(name, m.Unit) {
						continue
					}
					checked++
					if b.metrics[name] != m {
						t.Errorf("%s: %v, then %v with two more jobs", name, m.Value, b.metrics[name].Value)
					}
				}
			}
			if checked < 30 {
				t.Fatalf("only %d count metrics checked", checked)
			}
		})
	}
}

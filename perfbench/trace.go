package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"clusterbft/internal/cluster"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
)

// Span names: each is a call into one layer, made either by the engine
// through a wrapped hook or by the benchmark replaying the workload's
// input through the layer's public functions.
const (
	spanRun        = iota // one assured Run: the root of a job's spans
	spanDigestSink        // Engine.DigestSink -> controller verifier
	spanJobDone           // Engine.OnJobDone -> controller (quiz re-execution runs here)
	spanSchedPick         // Engine.Sched.Pick -> OverlapScheduler
	spanParse             // replay: pig.Parse
	spanMark              // replay: analyze.Analyze + marker
	spanCompile           // replay: mapred.Compile
	spanRead              // replay: dfs OpenReader + ReadRange over the input
	spanDecode            // replay: tuple.Decoder.DecodeLine with the LOAD schema
	spanDigest            // replay: digest.Writer over the decoded input
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"run", "core.digest_sink", "core.job_done", "core.sched_pick",
	"pig.parse", "analyze.mark", "mapred.compile",
	"dfs.read", "tuple.decode", "digest.add",
}

// span is one timed call. parent indexes the enclosing span, -1 for a
// root; job is the iteration the span belongs to.
type span struct {
	start, end int64 // ns since the tracer's epoch
	parent     int32
	job        int32
	name       uint8
}

// tracer keeps spans in memory until the run ends. Every wrapped hook
// fires on the engine's simulation goroutine, which is also the one
// calling Run, so one open-span stack orders all of them.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32
	job   int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) begin(name uint8) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{start: int64(time.Since(t.epoch)), parent: parent, job: t.job, name: name})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].end = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per job and span name, the summed self time in ns
// (a span's duration minus what its direct children cover) and the
// number of spans.
func (t *tracer) selfTimes(jobs int) (self [][numSpanNames]int64, calls [][numSpanNames]int64) {
	self = make([][numSpanNames]int64, jobs)
	calls = make([][numSpanNames]int64, jobs)
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.job][s.name] += d
		calls[s.job][s.name]++
		if s.parent >= 0 {
			p := t.spans[s.parent]
			self[p.job][p.name] -= d
		}
	}
	return self, calls
}

// write dumps every span as one tab-separated line: id, name, job,
// parent, start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tjob\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.name], s.job, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedScheduler times every Pick. It must keep implementing
// mapred.SIDForgetter: the engine type-asserts it on attempt teardown,
// and a wrapper that hid it would leak sub-graph affinity and change
// placement.
type tracedScheduler struct {
	inner mapred.Scheduler
	t     *tracer
}

func (s *tracedScheduler) Pick(node *cluster.Node, candidates []*mapred.Task) *mapred.Task {
	id := s.t.begin(spanSchedPick)
	task := s.inner.Pick(node, candidates)
	s.t.end(id)
	return task
}

func (s *tracedScheduler) ForgetSID(sid string) {
	if f, ok := s.inner.(mapred.SIDForgetter); ok {
		f.ForgetSID(sid)
	}
}

// recoveryCounts tallies Controller.OnRecovery decisions.
type recoveryCounts struct {
	retry, restart, escalate int64
}

// instrument wraps an assured system's engine and controller hooks.
// The wrappers only time and count; the controller's own callbacks
// still run, in the same order, with the same arguments.
func instrument(s *system, t *tracer, rec *recoveryCounts) {
	s.tr = t
	sink := s.eng.DigestSink
	s.eng.DigestSink = func(r digest.Report) {
		id := t.begin(spanDigestSink)
		sink(r)
		t.end(id)
	}
	done := s.eng.OnJobDone
	s.eng.OnJobDone = func(js *mapred.JobState) {
		id := t.begin(spanJobDone)
		done(js)
		t.end(id)
	}
	s.eng.Sched = &tracedScheduler{inner: s.eng.Sched, t: t}
	s.ctrl.OnRecovery = func(action string, _, _ int) {
		switch action {
		case "retry":
			rec.retry++
		case "restart":
			rec.restart++
		case "escalate":
			rec.escalate++
		}
	}
}

package main

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
)

// setupReps is how often set-up runs; setup_s is the median.
const setupReps = 9

// countWindow is how many measured jobs the count and virtual-time
// metrics average over. Counts drift a little along a stream of Runs
// (run sequence numbers appear in record bytes, quiz sampling varies
// per run), so they cover a fixed prefix of the stream: then a seed
// gives the same counts however many jobs a run measures.
const countWindow = 4

type options struct {
	seed     int64
	duration time.Duration
	// iterations > 0 runs exactly that many measured iterations instead
	// of measuring for duration; tests use it to make runs comparable.
	iterations int
	spillDir   string
	spanFile   string // traced pass only; "" skips the dump
}

// session is one workload's generated input and configuration.
type session struct {
	w       *benchWorkload
	cfg     core.Config
	opts    options
	lines   []string
	stores  []string
	setupNs []int64
	loadNs  []int64
	// ref is timed before every set-up and every measured iteration.
	ref *reference
}

// setup generates the input and builds n assured systems over it,
// setupReps times, keeping the last systems built.
func setup(w *benchWorkload, opts options, n int) (*session, []*system, error) {
	cfg := w.config()
	cfg.Storage.SpillDir = opts.spillDir
	plan, err := pig.Parse(w.script)
	if err != nil {
		return nil, nil, err
	}
	ref, err := newReference(opts.spillDir)
	if err != nil {
		return nil, nil, err
	}
	ses := &session{w: w, cfg: cfg, opts: opts, ref: ref}
	for _, st := range plan.Stores() {
		ses.stores = append(ses.stores, st.Path)
	}
	var systems []*system
	for rep := 0; rep < setupReps; rep++ {
		closeAll(systems)
		systems = systems[:0]
		// Timing the reference task collects the heap first, so each
		// set-up starts from a collected heap: the previous one's
		// garbage neither slows it nor raises the RSS peak.
		if err := ses.ref.measure(); err != nil {
			ses.close(systems)
			return nil, nil, err
		}
		start := time.Now()
		ses.lines = w.gen(opts.seed)
		for i := 0; i < n; i++ {
			s, err := ses.build(true)
			if err != nil {
				ses.close(systems)
				return nil, nil, err
			}
			systems = append(systems, s)
		}
		ses.setupNs = append(ses.setupNs, int64(time.Since(start)))
	}
	return ses, systems, nil
}

// build loads the input into a fresh store and builds a system on it,
// recording the load time.
func (ses *session) build(assured bool) (*system, error) {
	fs := dfs.NewWith(ses.cfg.Storage)
	start := time.Now()
	fs.Append(ses.w.input, ses.lines...)
	ses.loadNs = append(ses.loadNs, int64(time.Since(start)))
	return newSystem(ses.w, ses.cfg, fs, assured, ses.opts.seed)
}

func closeAll(systems []*system) {
	for _, s := range systems {
		s.close()
	}
}

// close closes the systems and the reference task's file.
func (ses *session) close(systems []*system) {
	closeAll(systems)
	ses.ref.close()
}

// jobSample is one assured Run: host cost measured around the call and
// the deltas of the system's counters across it.
type jobSample struct {
	wallNs, cpuNs int64
	allocBytes    uint64
	rssMB         float64 // resident high-water mark over the job
	mallocs       uint64
	gcCycles      uint32
	gcPauseNs     uint64

	res *core.Result
	err error

	metrics             mapred.Metrics // per-run delta of the engine counters
	ledger              mapred.CostBuckets
	quizTasks           int64
	dfsRead, dfsWritten int64
	spilled, spillBytes int64
	rec                 recoveryCounts // traced system only
}

// runAssured runs the script once on s, timing only the Run call. It
// collects garbage first, so a job does not pay for the previous
// iteration's plain system.
func runAssured(s *system, script string) jobSample {
	var js jobSample
	runtime.GC()
	m0, l0, q0 := s.eng.Metrics, s.eng.Ledger.Buckets(), s.eng.QuizTasks
	r0, w0, sb0, sy0 := s.fs.BytesRead(), s.fs.BytesWritten(), s.fs.SpilledBlocks(), s.fs.SpillBytes()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	peakRSSReset()
	cpu0 := cpuNs()
	start := time.Now()
	if s.tr != nil {
		id := s.tr.begin(spanRun)
		js.res, js.err = s.ctrl.Run(script)
		s.tr.end(id)
	} else {
		js.res, js.err = s.ctrl.Run(script)
	}
	js.wallNs = int64(time.Since(start))
	js.cpuNs = cpuNs() - cpu0
	runtime.ReadMemStats(&ms1)
	js.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	js.mallocs = ms1.Mallocs - ms0.Mallocs
	js.gcCycles = ms1.NumGC - ms0.NumGC
	js.gcPauseNs = ms1.PauseTotalNs - ms0.PauseTotalNs
	js.rssMB = peakRSSMB()
	js.metrics = diff(s.eng.Metrics, m0)
	js.ledger = diff(s.eng.Ledger.Buckets(), l0)
	js.quizTasks = s.eng.QuizTasks - q0
	js.dfsRead = s.fs.BytesRead() - r0
	js.dfsWritten = s.fs.BytesWritten() - w0
	js.spilled = s.fs.SpilledBlocks() - sb0
	js.spillBytes = s.fs.SpillBytes() - sy0
	return js
}

// cpuNs is the process's user+system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// failure says why an assured job does not count as a verified result,
// or "" when it does.
func failure(js jobSample) string {
	switch {
	case js.err != nil:
		return js.err.Error()
	case js.res == nil || !js.res.Verified:
		return "unverified result"
	}
	return ""
}

// plainLeg runs the script on a fresh plain system — a second RunPlain
// on one system would find its STORE paths taken — and checks the
// assured job's sorted outputs against it.
func (ses *session) plainLeg(asys *system, js jobSample) (int64, string) {
	runtime.GC()
	psys, err := ses.build(false)
	if err != nil {
		return 0, "plain set-up: " + err.Error()
	}
	defer psys.close()
	start := time.Now()
	_, err = core.RunPlain(psys.eng, ses.w.script)
	ns := int64(time.Since(start))
	if err != nil {
		return ns, "plain run: " + err.Error()
	}
	if why := failure(js); why != "" {
		return ns, why
	}
	for _, st := range ses.stores {
		got, err := readSorted(asys.fs, js.res.Outputs[st])
		if err != nil {
			return ns, fmt.Sprintf("assured output %s: %v", st, err)
		}
		want, err := readSorted(psys.fs, st)
		if err != nil {
			return ns, fmt.Sprintf("plain output %s: %v", st, err)
		}
		if len(got) == 0 {
			return ns, "empty output " + st
		}
		if !slices.Equal(got, want) {
			return ns, fmt.Sprintf("output %s differs from the plain run (%d vs %d records)", st, len(got), len(want))
		}
	}
	return ns, ""
}

func readSorted(fs *dfs.FS, path string) ([]string, error) {
	if path == "" {
		return nil, fmt.Errorf("no output")
	}
	lines, err := fs.ReadTree(path)
	if err != nil {
		return nil, err
	}
	sort.Strings(lines)
	return lines, nil
}

// runUntraced measures the end-to-end metrics with no hook wrapped.
func runUntraced(w *benchWorkload, opts options) (*report, error) {
	ses, systems, err := setup(w, opts, 1)
	if err != nil {
		return nil, err
	}
	defer ses.close(systems)
	sys := systems[0]
	rep := newReport(w)

	var jobs []jobSample
	var plainNs []int64
	start := time.Now()
	// Iteration 0 warms the pool, caches and heap and is not timed.
	for i := 0; ses.more(i, start); i++ {
		if i > 0 {
			if err := ses.ref.measure(); err != nil {
				return nil, err
			}
		}
		js := runAssured(sys, w.script)
		pns, why := ses.plainLeg(sys, js)
		rep.attempted++
		if why != "" {
			rep.failed++
			rep.note("job %d failed: %s", i, why)
		}
		if i == 0 {
			start = time.Now()
			continue
		}
		jobs = append(jobs, js)
		plainNs = append(plainNs, pns)
	}
	ses.endToEnd(rep, jobs, plainNs)
	return rep, nil
}

// more reports whether iteration i (0 is the warm-up) should run.
func (ses *session) more(i int, start time.Time) bool {
	if i == 0 {
		return true
	}
	if ses.opts.iterations > 0 {
		return i <= ses.opts.iterations
	}
	return i == 1 || time.Since(start) < ses.opts.duration
}

// endToEnd reports the end-to-end metrics, host times scaled to the
// reference host (see reference).
func (ses *session) endToEnd(rep *report, jobs []jobSample, plainNs []int64) {
	n := len(jobs)
	wall := pluck(jobs, func(j jobSample) float64 { return float64(j.wallNs) })
	p50 := median(wall)
	pct, tail := tailPercentile(wall)
	totalWall := sum(wall)
	plain := medianInt(plainNs)
	cpu := median(pluck(jobs, func(j jobSample) float64 { return float64(j.cpuNs) }))
	setup := medianInt(ses.setupNs)
	k, kcpu := ses.ref.scale(), ses.ref.scaleCPU()
	rep.note("closed loop, one client; %d timed assured jobs after 1 warm-up, GOMAXPROCS=%d", n, runtime.GOMAXPROCS(0))
	rep.note("assured_ms_tail is p%.1f of %d samples", pct, n)
	rep.note("reference task median %.3f ms wall, %.3f ms CPU over %d timings (nominal %v): host wall times below are the measured ones x %.4f, CPU times x %.4f",
		medianInt(ses.ref.wallNs)/1e6, medianInt(ses.ref.cpuNs)/1e6, len(ses.ref.wallNs), refNominal, k, kcpu)
	rep.note("measured: assured p50 %.3f ms, tail %.3f ms, plain p50 %.3f ms, cpu %.3f ms/job, setup %.4f s",
		p50/1e6, tail/1e6, plain/1e6, cpu/1e6, setup/1e9)
	rep.add("assured_ms_p50", k*p50/1e6, "ms")
	rep.add("assured_ms_tail", k*tail/1e6, "ms")
	rep.add("plain_ms_p50", k*plain/1e6, "ms")
	rep.add("records_per_s", float64(ses.w.rows)*float64(n)/(k*totalWall/1e9), "1/s")
	rep.add("cpu_ms_per_job", kcpu*cpu/1e6, "ms")
	rep.add("alloc_mb_per_job", median(pluck(jobs, func(j jobSample) float64 { return float64(j.allocBytes) }))/1e6, "MB")
	if !peakRSSReset() {
		rep.note("the kernel cannot reset the resident high-water mark: peak_rss_mb is the run's, not a job's")
	}
	rep.add("peak_rss_mb", median(pluck(jobs, func(j jobSample) float64 { return j.rssMB })), "MB")
	rep.add("virtual_latency_s", windowMean(jobs, func(j jobSample) float64 { return float64(j.res.LatencyUs) })/1e6, "vs")
	rep.add("virtual_cpu_s", windowMean(jobs, func(j jobSample) float64 { return float64(j.metrics.CPUTimeUs) })/1e6, "vs")
	rep.add("setup_s", k*setup/1e9, "s")
	rep.note("failed_ratio %d/%d = %g", rep.failed, rep.attempted, float64(rep.failed)/float64(rep.attempted))
}

// runTraced runs an untraced and a traced assured system in lockstep on
// the same input, alternating which goes first, and reports per-layer
// metrics from the traced one.
func runTraced(w *benchWorkload, opts options) (*report, error) {
	ses, systems, err := setup(w, opts, 2)
	if err != nil {
		return nil, err
	}
	defer ses.close(systems)
	untraced, traced := systems[0], systems[1]
	// Blocks loading the input spilled; jobs read them back from disk.
	loadSpilled, loadSpillBytes := traced.fs.SpilledBlocks(), traced.fs.SpillBytes()
	tr := newTracer()
	var rec recoveryCounts
	instrument(traced, tr, &rec)
	schema, err := loadSchema(w)
	if err != nil {
		return nil, err
	}
	rep := newReport(w)

	var ujobs, tjobs []jobSample
	var replays []dataReplay
	start := time.Now()
	for i := 0; ses.more(i, start); i++ {
		tr.job = int32(i)
		var u, t jobSample
		before := rec
		if i%2 == 0 {
			u = runAssured(untraced, w.script)
			t = runAssured(traced, w.script)
		} else {
			t = runAssured(traced, w.script)
			u = runAssured(untraced, w.script)
		}
		_, why := ses.plainLeg(traced, t)
		if why == "" {
			why = sameResult(untraced, u, traced, t, ses.stores)
			if why != "" {
				rep.mismatch = fmt.Sprintf("job %d: %s", i, why)
			}
		}
		rep.attempted++
		if why != "" {
			rep.failed++
			rep.note("job %d failed: %s", i, why)
		}
		if err := replayFrontEnd(tr, w, ses.cfg, traced.fs); err != nil {
			return nil, err
		}
		dr, err := replayData(tr, w, ses.cfg, traced.fs, schema, mapred.DefaultCostModel().SplitRecords)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			start = time.Now()
			continue
		}
		t.rec = recoveryCounts{rec.retry - before.retry, rec.restart - before.restart, rec.escalate - before.escalate}
		ujobs = append(ujobs, u)
		tjobs = append(tjobs, t)
		replays = append(replays, dr)
	}
	if opts.spanFile != "" {
		if err := tr.write(opts.spanFile); err != nil {
			return nil, err
		}
		rep.note("%d spans written to %s", len(tr.spans), opts.spanFile)
	}
	ses.perLayer(rep, tr, ujobs, tjobs, replays)
	rep.add("dfs.spilled_blocks", float64(loadSpilled)+windowMean(tjobs, func(j jobSample) float64 { return float64(j.spilled) }), "count")
	rep.add("dfs.spill_bytes", float64(loadSpillBytes)+windowMean(tjobs, func(j jobSample) float64 { return float64(j.spillBytes) }), "B")
	rep.add("dfs.max_resident_kb", float64(traced.fs.MaxResidentBytes())/1024, "KiB")
	return rep, nil
}

// sameResult checks that the traced system returned what the untraced
// one did: the whole Result and the output records behind it.
func sameResult(us *system, u jobSample, ts *system, t jobSample, stores []string) string {
	if (u.err == nil) != (t.err == nil) || !reflect.DeepEqual(u.res, t.res) {
		return "traced Result differs from untraced"
	}
	for _, st := range stores {
		a, errA := us.fs.ReadTree(u.res.Outputs[st])
		b, errB := ts.fs.ReadTree(t.res.Outputs[st])
		if errA != nil || errB != nil || !slices.Equal(a, b) {
			return "traced output " + st + " differs from untraced"
		}
	}
	return ""
}

func (ses *session) perLayer(rep *report, tr *tracer, ujobs, tjobs []jobSample, replays []dataReplay) {
	n := len(tjobs)
	// Span job 0 is the warm-up; job k (k >= 1) is tjobs[k-1].
	selfAll, callsAll := tr.selfTimes(n + 1)
	self, calls := selfAll[1:], callsAll[1:]
	perJob := func(v func(k int) float64) float64 {
		xs := make([]float64, n)
		for k := range xs {
			xs[k] = v(k)
		}
		return median(xs)
	}
	selfOf := func(name int, scale float64) float64 {
		return perJob(func(k int) float64 { return float64(self[k][name]) / scale })
	}
	callsOf := func(name int) float64 {
		window := min(n, countWindow)
		var s float64
		for k := 0; k < window; k++ {
			s += float64(calls[k][name])
		}
		return s / float64(window)
	}
	perCall := func(name int) float64 {
		return perJob(func(k int) float64 { return float64(self[k][name]) / float64(calls[k][name]) / 1e3 })
	}
	perRec := func(name int) float64 {
		return perJob(func(k int) float64 { return float64(self[k][name]) / float64(replays[k].records) })
	}
	tmed := median(pluck(tjobs, func(j jobSample) float64 { return float64(j.wallNs) }))
	umed := median(pluck(ujobs, func(j jobSample) float64 { return float64(j.wallNs) }))
	rep.note("traced pass: %d jobs per system, GOMAXPROCS=%d", n, runtime.GOMAXPROCS(0))
	rep.note("tracing overhead: traced %.3f ms - untraced %.3f ms assured_ms_p50", tmed/1e6, umed/1e6)

	rep.add("pig.parse_us", perCall(spanParse), "us")
	rep.add("analyze.mark_us", perCall(spanMark), "us")
	rep.add("mapred.compile_us", perCall(spanCompile), "us")
	rep.add("dfs.load_ms", medianInt(ses.loadNs)/1e6, "ms")
	rep.add("dfs.read_ns_per_rec", perRec(spanRead), "ns")
	rep.add("tuple.decode_ns_per_rec", perRec(spanDecode), "ns")
	rep.add("digest.add_ns_per_rec", perRec(spanDigest), "ns")

	counts := []struct {
		name, unit string
		v          func(j jobSample) float64
	}{
		{"mapred.map_tasks", "count", func(j jobSample) float64 { return float64(j.metrics.MapTasks) }},
		{"mapred.reduce_tasks", "count", func(j jobSample) float64 { return float64(j.metrics.ReduceTasks) }},
		{"mapred.records_in", "count", func(j jobSample) float64 { return float64(j.metrics.RecordsIn) }},
		{"mapred.combined_records", "count", func(j jobSample) float64 { return float64(j.metrics.CombinedRecords) }},
		{"mapred.shuffle_records", "count", func(j jobSample) float64 { return float64(j.metrics.ShuffleRecords) }},
		{"mapred.shuffle_bytes", "B", func(j jobSample) float64 { return float64(j.metrics.LocalBytesWritten) }},
		{"mapred.records_out", "count", func(j jobSample) float64 { return float64(j.metrics.RecordsOut) }},
		{"mapred.quiz_tasks", "count", func(j jobSample) float64 { return float64(j.quizTasks) }},
		{"mapred.speculative_tasks", "count", func(j jobSample) float64 { return float64(j.metrics.SpeculativeTasks) }},
		{"digest.records", "count", func(j jobSample) float64 { return float64(j.metrics.DigestRecords) }},
		{"digest.reports", "count", func(j jobSample) float64 { return float64(j.res.DigestReports) }},
		{"dfs.bytes_read", "B", func(j jobSample) float64 { return float64(j.dfsRead) }},
		{"dfs.bytes_written", "B", func(j jobSample) float64 { return float64(j.dfsWritten) }},
		{"core.attempts", "count", func(j jobSample) float64 { return float64(j.res.Attempts) }},
		{"core.clusters", "count", func(j jobSample) float64 { return float64(j.res.Clusters) }},
		{"core.faulty_replicas", "count", func(j jobSample) float64 { return float64(j.res.FaultyReplicas) }},
		{"core.suspects", "count", func(j jobSample) float64 { return float64(len(j.res.Suspects)) }},
		{"core.recovery.retry", "count", func(j jobSample) float64 { return float64(j.rec.retry) }},
		{"core.recovery.restart", "count", func(j jobSample) float64 { return float64(j.rec.restart) }},
		{"core.recovery.escalate", "count", func(j jobSample) float64 { return float64(j.rec.escalate) }},
	}
	for _, c := range counts {
		rep.add(c.name, windowMean(tjobs, c.v), c.unit)
	}

	rep.add("mapred.engine_ms", selfOf(spanRun, 1e6), "ms")
	rep.add("core.digest_sink_ms", selfOf(spanDigestSink, 1e6), "ms")
	rep.add("core.digest_sink_calls", callsOf(spanDigestSink), "count")
	rep.add("core.digest_sink_pct", perJob(func(k int) float64 {
		return 100 * float64(self[k][spanDigestSink]) / float64(tjobs[k].wallNs)
	}), "%")
	rep.add("core.job_done_ms", selfOf(spanJobDone, 1e6), "ms")
	rep.add("core.job_done_calls", callsOf(spanJobDone), "count")
	rep.add("core.sched_pick_us", selfOf(spanSchedPick, 1e3), "us")
	rep.add("core.sched_picks", callsOf(spanSchedPick), "count")

	// The cost ledger charges modelled CPU, not host time.
	ledger := func(v func(b mapred.CostBuckets) int64) float64 {
		return windowMean(tjobs, func(j jobSample) float64 { return float64(v(j.ledger)) }) / 1e6
	}
	rep.add("ledger.committed_s", ledger(func(b mapred.CostBuckets) int64 { return b.CommittedUs }), "vs")
	rep.add("ledger.replica_waste_s", ledger(func(b mapred.CostBuckets) int64 { return b.ReplicaWasteUs }), "vs")
	rep.add("ledger.verify_s", ledger(func(b mapred.CostBuckets) int64 { return b.VerifyUs() }), "vs")
	rep.add("ledger.recovery_rerun_s", ledger(func(b mapred.CostBuckets) int64 { return b.RecoveryRerunUs }), "vs")

	// Host-side costs come from the untraced system, so span recording
	// does not inflate them.
	uwall := pluck(ujobs, func(j jobSample) float64 { return float64(j.wallNs) })
	ucpu := pluck(ujobs, func(j jobSample) float64 { return float64(j.cpuNs) })
	rep.add("go.allocs_per_job", median(pluck(ujobs, func(j jobSample) float64 { return float64(j.mallocs) })), "count")
	rep.add("go.gc_cycles_per_job", median(pluck(ujobs, func(j jobSample) float64 { return float64(j.gcCycles) })), "count")
	rep.add("go.gc_pause_ms_per_job", median(pluck(ujobs, func(j jobSample) float64 { return float64(j.gcPauseNs) }))/1e6, "ms")
	rep.add("pool.busy_ratio", sum(ucpu)/(sum(uwall)*float64(runtime.GOMAXPROCS(0))), "ratio")
	rep.add("trace.overhead_ms", (tmed-umed)/1e6, "ms")
}

func pluck(jobs []jobSample, v func(jobSample) float64) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = v(j)
	}
	return out
}

// windowMean averages v over the first countWindow jobs.
func windowMean(jobs []jobSample, v func(jobSample) float64) float64 {
	return sum(pluck(jobs[:min(len(jobs), countWindow)], v)) / float64(min(len(jobs), countWindow))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func medianInt(xs []int64) float64 {
	f := make([]float64, len(xs))
	for i, x := range xs {
		f[i] = float64(x)
	}
	return median(f)
}

// tailPercentile returns the highest percentile that leaves ten samples
// above it — the eleventh-largest sample — and its value. A run too
// short to leave ten samples above its median reports the maximum.
func tailPercentile(xs []float64) (float64, float64) {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n < 20 {
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}

// peakRSSReset sets the process's resident high-water mark back to its
// current resident set, so that the next peakRSSMB covers one job: the
// resident set grows along a stream of Runs, and a mark over the whole
// run would grow with however many jobs the host's speed allowed. It
// reports whether the kernel took the reset.
func peakRSSReset() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's resident high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return math.NaN()
}

// diff subtracts b from a field by field; every field of the engine's
// Metrics and CostBuckets is an int64 counter.
func diff[T mapred.Metrics | mapred.CostBuckets](a, b T) T {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetInt(va.Field(i).Int() - vb.Field(i).Int())
	}
	return a
}

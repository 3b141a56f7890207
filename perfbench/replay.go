package main

import (
	"fmt"
	"sort"

	"clusterbft/internal/analyze"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/digest"
	"clusterbft/internal/mapred"
	"clusterbft/internal/pig"
	"clusterbft/internal/tuple"
)

// frontEndReps is how often one iteration replays the front end; a
// single parse or compile takes microseconds.
const frontEndReps = 20

// replayFrontEnd parses, marks verification points and compiles the
// script the way Controller.Run does, timing each layer.
func replayFrontEnd(t *tracer, w *benchWorkload, cfg core.Config, fs *dfs.FS) error {
	size := func(path string) int64 {
		if n, err := fs.Size(path); err == nil {
			return n
		}
		return fs.TreeSize(path)
	}
	for i := 0; i < frontEndReps; i++ {
		id := t.begin(spanParse)
		plan, err := pig.Parse(w.script)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin(spanMark)
		points := markPoints(plan, cfg, size)
		t.end(id)
		id = t.begin(spanCompile)
		_, err = mapred.Compile(plan, mapred.CompileOptions{
			Points:         points,
			NumReduces:     cfg.NumReduces,
			DisableCombine: cfg.DisableCombine,
		})
		t.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// markPoints mirrors the controller's point selection for the
// configurations the workloads use: final outputs plus the marker's n
// points, or every candidate when Points is -1.
func markPoints(plan *pig.Plan, cfg core.Config, size analyze.SizeFunc) []int {
	set := make(map[int]bool)
	var finals []int
	for _, st := range plan.Stores() {
		set[st.Parents[0].ID] = true
		finals = append(finals, st.Parents[0].ID)
	}
	sort.Ints(finals)
	a := analyze.Analyze(plan, size)
	var marked []int
	if cfg.Points < 0 {
		marked = a.Candidates(cfg.Model)
	} else {
		marked = a.Mark(cfg.Points, cfg.Model, finals...)
	}
	for _, p := range marked {
		set[p] = true
	}
	out := make([]int, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// dataReplay is one pass of the workload's input through the data-plane
// layers a map task runs: block reads, tuple decode and the digest.
type dataReplay struct {
	records int
}

// replayData reads the input back from the store split by split,
// decodes it with the script's LOAD schema and digests the tuples at
// the workload's d.
func replayData(t *tracer, w *benchWorkload, cfg core.Config, fs *dfs.FS, schema *tuple.Schema, split int) (dataReplay, error) {
	var out dataReplay
	id := t.begin(spanRead)
	r, err := fs.OpenReader(w.input)
	if err != nil {
		t.end(id)
		return out, err
	}
	n := r.NumRecords()
	lines := make([]string, 0, n)
	for start := 0; start < n; start += split {
		lines = append(lines, r.ReadRange(start, min(start+split, n))...)
	}
	t.end(id)
	if len(lines) != w.rows {
		return out, fmt.Errorf("dfs replay read %d records, want %d", len(lines), w.rows)
	}

	id = t.begin(spanDecode)
	var dec tuple.Decoder
	tuples := make([]tuple.Tuple, len(lines))
	for i, line := range lines {
		tuples[i] = dec.DecodeLine(line, schema)
	}
	t.end(id)

	id = t.begin(spanDigest)
	dw := digest.NewWriter(digest.Key{SID: "replay", Task: "m000"}, 0, cfg.DigestChunk, func(digest.Report) {})
	for _, tu := range tuples {
		dw.Add(tu)
	}
	dw.Close()
	t.end(id)
	out.records = len(tuples)
	return out, nil
}

// loadSchema returns the schema of the script's LOAD of the input.
func loadSchema(w *benchWorkload) (*tuple.Schema, error) {
	plan, err := pig.Parse(w.script)
	if err != nil {
		return nil, err
	}
	for _, v := range plan.Loads() {
		if v.Path == w.input {
			return v.Schema, nil
		}
	}
	return nil, fmt.Errorf("script does not LOAD %s", w.input)
}

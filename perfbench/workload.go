package main

import (
	"clusterbft/internal/cluster"
	"clusterbft/internal/core"
	"clusterbft/internal/dfs"
	"clusterbft/internal/mapred"
	"clusterbft/internal/workload"
)

// Every workload runs on the same untrusted tier.
const (
	nodes = 16
	slots = 3
)

// benchWorkload is one input set the benchmark drives: a paper script,
// its seeded input, and the assured configuration it runs under.
type benchWorkload struct {
	name   string
	script string
	input  string // DFS path the script LOADs
	rows   int
	gen    func(seed int64) []string
	config func() core.Config
	// faulty, when set, is a probability-1 commission adversary on the
	// assured system; the plain baseline never carries it.
	faulty cluster.NodeID
}

var workloads = []benchWorkload{
	{
		name:   "follower-r4",
		script: workload.FollowerScript,
		input:  workload.TwitterPath,
		rows:   100_000,
		gen:    func(seed int64) []string { return workload.Twitter(100_000, 2_500, seed) },
		config: core.DefaultConfig,
	},
	{
		name:   "weather-d1k-byz",
		script: workload.WeatherScript,
		input:  workload.WeatherPath,
		rows:   100_000,
		gen:    func(seed int64) []string { return workload.Weather(100_000, 500, seed) },
		config: func() core.Config {
			// Fig 14's "Individual" configuration at d=1000, eviction off
			// so the adversary stays on every job.
			cfg := core.DefaultConfig()
			cfg.Points = -1
			cfg.DigestChunk = 1000
			cfg.SuspicionThreshold = 0
			return cfg
		},
		faulty: "node-003",
	},
	{
		name:   "airline-quiz-spill",
		script: workload.AirlineScript,
		input:  workload.AirlinePath,
		rows:   100_000,
		gen:    func(seed int64) []string { return workload.Airline(100_000, 40, seed) },
		config: func() core.Config {
			cfg := core.DefaultConfig()
			cfg.VerifyPolicy = core.PolicyQuiz
			cfg.Storage = dfs.Options{BlockSize: 64 << 10, MemBudget: 128 << 10, Compress: true}
			return cfg
		},
	},
}

func findWorkload(name string) (*benchWorkload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// system is one deployment built the way clusterbft.NewWithCost builds
// it, with the engine and controller left reachable so their hooks can
// be wrapped. ctrl is nil for the plain (unreplicated) baseline.
type system struct {
	fs   *dfs.FS
	eng  *mapred.Engine
	ctrl *core.Controller
	// tr, when set, records a root span around every Run; the hooks
	// instrument wraps hang their spans under it.
	tr *tracer
}

// newSystem builds the engine over a loaded store; assured systems also
// get the controller and the adversary.
func newSystem(w *benchWorkload, cfg core.Config, fs *dfs.FS, assured bool, seed int64) (*system, error) {
	workers := cluster.New(nodes, slots)
	susp := core.NewSuspicionTable(cfg.SuspicionThreshold)
	eng := mapred.NewEngine(fs, workers, core.NewOverlapScheduler(susp), mapred.DefaultCostModel())
	s := &system{fs: fs, eng: eng}
	if assured {
		if w.faulty != "" {
			if err := workers.SetAdversary(w.faulty, cluster.FaultCommission, 1, seed); err != nil {
				fs.Close()
				return nil, err
			}
		}
		s.ctrl = core.NewController(eng, cfg, susp, nil)
	}
	return s, nil
}

func (s *system) close() error { return s.fs.Close() }

package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"time"
)

// workloadsJSON fixes every workload parameter and the composed serve
// stack's settings. The stack block mirrors buildEdgeStack in
// cmd/liveedge and the jsonfleet defaults, so a drift between the two
// shows up as a diff of this file.
//
//go:embed workloads.json
var workloadsJSON []byte

// duration is a time.Duration that reads from a Go duration string.
type duration time.Duration

func (d *duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	v, err := time.ParseDuration(s)
	*d = duration(v)
	return err
}

func (d duration) D() time.Duration { return time.Duration(d) }

// stackConfig is the composed front → edge → origin stack.
type stackConfig struct {
	Members              int      `json:"members"`
	CacheBytes           int64    `json:"cache_bytes"`
	CacheTTL             duration `json:"cache_ttl"`
	CacheShards          int      `json:"cache_shards"`
	JSONOriginArticles   int      `json:"json_origin_articles"`
	JSONOriginLatency    duration `json:"json_origin_latency"`
	WildcardLatency      duration `json:"wildcard_latency"`
	FaultRate            float64  `json:"fault_rate"`
	FaultSeed            uint64   `json:"fault_seed"`
	RetryBase            duration `json:"retry_base"`
	RetryCap             duration `json:"retry_cap"`
	RetryAttempts        int      `json:"retry_attempts"`
	BreakerFailures      int      `json:"breaker_failures"`
	BreakerOpenFor       duration `json:"breaker_open_for"`
	AttemptTimeout       duration `json:"attempt_timeout"`
	ServeStale           bool     `json:"serve_stale"`
	EdgeTraceLimit       int      `json:"edge_trace_limit"`
	LiveCharWindow       duration `json:"livechar_window"`
	LiveCharBin          duration `json:"livechar_bin"`
	DefendClientIDHeader string   `json:"defend_client_id_header"`
	FleetProbe           duration `json:"fleet_probe"`
	FleetDownAfter       int      `json:"fleet_down_after"`
	FleetUpAfter         int      `json:"fleet_up_after"`
	FleetMaxFailover     int      `json:"fleet_max_failover"`
	FleetHedge           bool     `json:"fleet_hedge"`
}

// attackMix is the synth attack overlay, as shares of the benign
// request target.
type attackMix struct {
	CacheBust float64 `json:"cache_bust"`
	Flash     float64 `json:"flash"`
	Bots      float64 `json:"bots"`
	Amplify   float64 `json:"amplify"`
}

// workload is one entry of workloads.json. Batch fields apply to kind
// "batch", serve fields to kind "serve".
type workload struct {
	Name         string
	Kind         string `json:"kind"`
	SetupRepeats int    `json:"setup_repeats"`

	// Batch: the experiments.Config of jsonrepro's defaults.
	Scale         float64  `json:"scale"`
	PatternTarget int      `json:"pattern_target"`
	PatternWindow duration `json:"pattern_window"`
	Permutations  int      `json:"permutations"`
	SampleBin     duration `json:"sample_bin"`
	// ReferencePlanted is the analysis size the batch metrics are
	// stated at: planted poll targets plus their clients (the seeds
	// give about 190 to 235).
	ReferencePlanted float64 `json:"reference_planted"`

	// Serve: the stream, the stack, and the rate schedule. Churn
	// selects the miss-path workload: defend on, the whole stream
	// (POSTs and uncacheable paths too) replayed once rather than
	// looped, and every member's cache filled to capacity first. Without
	// it the stream keeps only cacheable GETs and loops, so after the
	// warm-up every request hits.
	Churn         bool      `json:"churn"`
	StreamDomains int       `json:"stream_domains"`
	Attack        attackMix `json:"attack"`
	NominalRPS    float64   `json:"nominal_rps"`
	LadderRPS     []float64 `json:"ladder_rps"`
	P99LimitMS    float64   `json:"p99_limit_ms"`
}

type benchConfig struct {
	Stack     stackConfig          `json:"stack"`
	Workloads map[string]*workload `json:"workloads"`
}

// loadConfig parses the embedded workload file and returns the named
// workload with the stack settings.
func loadConfig(name string) (*workload, stackConfig, error) {
	var cfg benchConfig
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		return nil, stackConfig{}, fmt.Errorf("workloads.json: %w", err)
	}
	wl := cfg.Workloads[name]
	if wl == nil {
		return nil, stackConfig{}, fmt.Errorf("unknown workload %q", name)
	}
	wl.Name = name
	if wl.SetupRepeats < 1 {
		wl.SetupRepeats = 1
	}
	return wl, cfg.Stack, nil
}

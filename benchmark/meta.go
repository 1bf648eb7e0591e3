package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// meta records what a result was measured on and with, so two results can be
// shown to be comparable (same corpus, same sizing, same machine shape).
type meta struct {
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	Kernel     string         `json:"kernel"`
	Seed       int64          `json:"seed"`
	CorpusHash string         `json:"corpus_hash"`
	Sizing     map[string]int `json:"sizing"`
	Seconds    float64        `json:"seconds"`
	Clients    int            `json:"clients"`
	// Samples is the number of timed ops behind every op timing; Percentiles
	// names the statistic each timing metric reports.
	Samples     int               `json:"samples"`
	Percentiles map[string]string `json:"percentiles"`
}

// commit is set by run.sh through -ldflags -X.
var commit string

func collectMeta(cfg runConfig, inst *instance, samples, nproc int) meta {
	m := meta{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      nproc,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		Seed:       cfg.seed,
		CorpusHash: inst.corpusHash,
		Sizing:     inst.sizing,
		Seconds:    cfg.seconds,
		Clients:    inst.clients,
		Samples:    samples,
		Percentiles: map[string]string{
			"setup_s":                "median of the run's set-ups",
			"op_p50_ms":              "p50 of the timed ops (per kind of op, kinds averaged)",
			"layer *_ms, *_us, *_ns": "median of the traced run's spans or probe repetitions",
		},
	}
	// run.sh passes the revision in; a plain `go build` inside a git work tree
	// stamps it; `go run`, and a checkout that is not a work tree, leave it
	// unknown.
	if commit != "" {
		m.Commit = commit
	} else if info, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			m.Commit += "-dirty"
		}
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, rest, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(rest)
		}
	}
	return "unknown"
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

// Command benchjson converts `go test -bench` text output into a
// structured JSON report. It reads the benchmark stream on stdin,
// echoes it unchanged to stdout (so it composes as a pipeline filter
// without hiding the human-readable results), and writes the parsed
// records for every benchmark whose name matches -filter to -out:
//
//	go test -bench=. -benchmem -run '^$' . | benchjson -filter '^(Stage|Solver)' -out BENCH_stages.json
//
// Each record carries the benchmark name (stripped of the Benchmark
// prefix and -GOMAXPROCS suffix), the iteration count, ns/op and, when
// -benchmem is on, B/op and allocs/op. Custom b.ReportMetric values are
// collected under "metrics". The report is stamped with what the
// numbers were measured on: the Go version benchjson itself was built
// with (the pipeline runs both under the same toolchain), plus goos,
// goarch and cpu from the `go test` header lines and GOMAXPROCS from
// the name suffix. The report is deterministic for a given input stream
// and toolchain, so diffs of BENCH_stages.json across commits show
// stage regressions directly.
//
// With -baseline, the run is also checked against a committed report
// (see compare.go): an allocs/op increase, a baseline row missing from
// the run, or a Go version/goos/goarch different from the baseline's
// stamp exits 1. ns/op growth is reported but never fails the run.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Stamp records the toolchain and machine a report was measured on.
type Stamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// Report is the file benchjson writes.
type Report struct {
	Stamp      Stamp    `json:"stamp"`
	Benchmarks []Record `json:"benchmarks"`
}

// benchLine matches a result line: name, the -GOMAXPROCS suffix (absent
// when GOMAXPROCS is 1), iterations, then the measured value columns
// ("<value> <unit>" pairs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+(.*)$`)

// valueUnit matches one "<number> <unit>" column of a result line.
var valueUnit = regexp.MustCompile(`([0-9.eE+-]+)\s+(\S+)`)

// parseLine parses one result line, also returning its GOMAXPROCS.
func parseLine(line string) (Record, int, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Record{}, 0, false
	}
	iters, err := strconv.ParseInt(m[3], 10, 64)
	if err != nil {
		return Record{}, 0, false
	}
	procs := 1
	if m[2] != "" {
		if procs, err = strconv.Atoi(m[2]); err != nil {
			return Record{}, 0, false
		}
	}
	rec := Record{
		Name:       strings.TrimPrefix(m[1], "Benchmark"),
		Iterations: iters,
	}
	seen := false
	for _, vu := range valueUnit.FindAllStringSubmatch(m[4], -1) {
		v, err := strconv.ParseFloat(vu[1], 64)
		if err != nil {
			continue
		}
		switch vu[2] {
		case "ns/op":
			rec.NsPerOp = v
			seen = true
		case "B/op":
			n := int64(v)
			rec.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			rec.AllocsPerOp = &n
		default:
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[vu[2]] = v
		}
	}
	return rec, procs, seen
}

// parseHeader folds a `go test` header line ("goos: linux", "goarch:
// amd64", "cpu: ...") into st, reporting whether it was one.
func parseHeader(line string, st *Stamp) bool {
	key, val, ok := strings.Cut(line, ": ")
	if !ok {
		return false
	}
	switch key {
	case "goos":
		st.GOOS = val
	case "goarch":
		st.GOARCH = val
	case "cpu":
		st.CPU = val
	default:
		return false
	}
	return true
}

// parse reads a benchmark stream, echoing every line to echo, and
// returns the stamped report of the records matching filter.
func parse(r io.Reader, echo io.Writer, filter *regexp.Regexp) (*Report, error) {
	report := Report{Stamp: Stamp{GoVersion: runtime.Version()}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if parseHeader(line, &report.Stamp) {
			continue
		}
		rec, procs, ok := parseLine(line)
		if !ok || !filter.MatchString(rec.Name) {
			continue
		}
		report.Stamp.GOMAXPROCS = procs
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: reading stdin: %w", err)
	}
	return &report, nil
}

// write stores the report at out (- = stdout).
func write(report *Report, out string) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fmt.Errorf("benchjson: %w", err)
	}
	return nil
}

func main() {
	filterFlag := flag.String("filter", "", "regexp selecting benchmark names for the report (empty = all)")
	out := flag.String("out", "-", "output file (- = stdout)")
	baselinePath := flag.String("baseline", "", "committed report to gate against: allocs/op growth, a missing row or a toolchain mismatch exits 1")
	flag.Parse()

	filter, err := regexp.Compile(*filterFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad -filter:", err)
		os.Exit(2)
	}
	report, err := parse(os.Stdin, os.Stdout, filter)
	if err == nil {
		err = write(report, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *baselinePath != "" {
		baseline, err := loadReport(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if compare(os.Stderr, baseline, report) > 0 {
			os.Exit(1)
		}
	}
}

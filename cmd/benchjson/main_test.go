package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	i64 := func(n int64) *int64 { return &n }
	cases := []struct {
		line  string
		want  Record
		procs int
		ok    bool
	}{
		{
			line: "BenchmarkStageTokenize-8   \t    1234\t    987654 ns/op\t  123456 B/op\t     789 allocs/op",
			want: Record{Name: "StageTokenize", Iterations: 1234, NsPerOp: 987654,
				BytesPerOp: i64(123456), AllocsPerOp: i64(789)},
			procs: 8,
			ok:    true,
		},
		{
			line:  "BenchmarkSolver/csp-8         100          51234 ns/op",
			want:  Record{Name: "Solver/csp", Iterations: 100, NsPerOp: 51234},
			procs: 8,
			ok:    true,
		},
		{
			// GOMAXPROCS=1: go test prints no suffix.
			line:  "BenchmarkSolver/csp         100          51234 ns/op",
			want:  Record{Name: "Solver/csp", Iterations: 100, NsPerOp: 51234},
			procs: 1,
			ok:    true,
		},
		{
			line: "BenchmarkEngineThroughput/engine-8  5  1.5e+08 ns/op  160.0 pages/s",
			want: Record{Name: "EngineThroughput/engine", Iterations: 5, NsPerOp: 1.5e8,
				Metrics: map[string]float64{"pages/s": 160}},
			procs: 8,
			ok:    true,
		},
		{line: "goos: linux", ok: false},
		{line: "PASS", ok: false},
		{line: "BenchmarkBroken-8  notanumber  12 ns/op", ok: false},
	}
	for _, c := range cases {
		got, procs, ok := parseLine(c.line)
		if ok != c.ok {
			t.Errorf("parseLine(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if ok && (!reflect.DeepEqual(got, c.want) || procs != c.procs) {
			t.Errorf("parseLine(%q) = %+v, procs %d; want %+v, procs %d", c.line, got, procs, c.want, c.procs)
		}
	}
}

// TestParseStamp feeds a whole `go test -bench` stream and checks the
// stamp: goos, goarch and cpu from the header lines, GOMAXPROCS from the
// name suffix, the Go version from the running toolchain.
func TestParseStamp(t *testing.T) {
	stream := `goos: linux
goarch: amd64
pkg: tableseg
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkStageTokenize-2   	    1608	    735912 ns/op	  797852 B/op	    1866 allocs/op
BenchmarkTable4CSP-2       	       3	 345000000 ns/op
PASS
ok  	tableseg	3.2s
`
	var echo strings.Builder
	got, err := parse(strings.NewReader(stream), &echo, regexp.MustCompile("^Stage"))
	if err != nil {
		t.Fatal(err)
	}
	want := Stamp{GoVersion: runtime.Version(), GOOS: "linux", GOARCH: "amd64",
		CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz", GOMAXPROCS: 2}
	if got.Stamp != want {
		t.Errorf("stamp = %+v, want %+v", got.Stamp, want)
	}
	if len(got.Benchmarks) != 1 || got.Benchmarks[0].Name != "StageTokenize" {
		t.Errorf("benchmarks = %+v, want StageTokenize only", got.Benchmarks)
	}
	if echo.String() != stream {
		t.Errorf("stream not echoed unchanged:\n%s", echo.String())
	}
}

func TestCompare(t *testing.T) {
	i64 := func(n int64) *int64 { return &n }
	stamp := Stamp{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "x", GOMAXPROCS: 2}
	row := func(name string, ns float64, allocs int64) Record {
		return Record{Name: name, NsPerOp: ns, AllocsPerOp: i64(allocs)}
	}
	baseline := &Report{Stamp: stamp, Benchmarks: []Record{
		row("StageTokenize", 1000, 1866),
		row("Solver/csp", 2000, 960),
	}}
	cases := []struct {
		name     string
		stamp    func(*Stamp)
		rows     []Record
		failures int
		want     []string // substrings of the output
	}{
		{
			name: "equal allocs pass",
			rows: []Record{row("StageTokenize", 1000, 1866), row("Solver/csp", 2000, 960)},
		},
		{
			name:     "allocs growth fails",
			rows:     []Record{row("StageTokenize", 1000, 1867), row("Solver/csp", 2000, 960)},
			failures: 1,
			want:     []string{"FAIL StageTokenize: allocs/op grew 1866 -> 1867", "1 allocs/op gate failure(s)"},
		},
		{
			name:     "missing row fails",
			rows:     []Record{row("StageTokenize", 1000, 1866), row("Solver/cspRenamed", 2000, 960)},
			failures: 1,
			want:     []string{"FAIL Solver/csp: in the baseline but not in this run", "Solver/cspRenamed: new benchmark"},
		},
		{
			name:     "allocs missing from the run fails",
			rows:     []Record{row("StageTokenize", 1000, 1866), {Name: "Solver/csp", NsPerOp: 2000}},
			failures: 1,
			want:     []string{"FAIL Solver/csp: no allocs/op in this run"},
		},
		{
			name:     "go version mismatch fails",
			stamp:    func(s *Stamp) { s.GoVersion = "go1.25.0" },
			rows:     []Record{row("StageTokenize", 1000, 1866), row("Solver/csp", 2000, 960)},
			failures: 1,
			want:     []string{"FAIL run is go1.25.0 linux/amd64 but the baseline was recorded with go1.24.0 linux/amd64", "make bench-stages"},
		},
		{
			name:     "goos mismatch fails",
			stamp:    func(s *Stamp) { s.GOOS = "darwin" },
			rows:     []Record{row("StageTokenize", 1000, 1866), row("Solver/csp", 2000, 960)},
			failures: 1,
			want:     []string{"darwin/amd64"},
		},
		{
			name:     "goarch mismatch fails",
			stamp:    func(s *Stamp) { s.GOARCH = "arm64" },
			rows:     []Record{row("StageTokenize", 1000, 1866), row("Solver/csp", 2000, 960)},
			failures: 1,
			want:     []string{"linux/arm64"},
		},
		{
			name:  "cpu and GOMAXPROCS differences do not gate",
			stamp: func(s *Stamp) { s.CPU, s.GOMAXPROCS = "y", 8 },
			rows:  []Record{row("StageTokenize", 1000, 1866), row("Solver/csp", 2000, 960)},
		},
		{
			name: "ns/op growth only warns",
			rows: []Record{row("StageTokenize", 1050, 1866), row("Solver/csp", 2700, 960)},
			want: []string{"Solver/csp: ns/op grew +35.0% (2000 -> 2700), beyond 30% (advisory)"},
		},
		{
			name: "allocs drop passes with a re-record hint",
			rows: []Record{row("StageTokenize", 1000, 1800), row("Solver/csp", 2000, 960)},
			want: []string{"StageTokenize: allocs/op fell 1866 -> 1800"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			current := &Report{Stamp: stamp, Benchmarks: c.rows}
			if c.stamp != nil {
				c.stamp(&current.Stamp)
			}
			var buf strings.Builder
			if got := compare(&buf, baseline, current); got != c.failures {
				t.Errorf("compare = %d failures, want %d\n%s", got, c.failures, buf.String())
			}
			out := buf.String()
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("output missing %q:\n%s", want, out)
				}
			}
			if len(c.want) == 0 && out != "" {
				t.Errorf("expected no output, got:\n%s", out)
			}
			if c.failures == 0 && strings.Contains(out, "FAIL") {
				t.Errorf("passing comparison printed a failure:\n%s", out)
			}
		})
	}

	// A ledger written before stamps existed cannot vouch for the
	// toolchain, so it fails until re-recorded.
	unstamped := &Report{Benchmarks: baseline.Benchmarks}
	var buf strings.Builder
	if got := compare(&buf, unstamped, baseline); got != 1 || !strings.Contains(buf.String(), "baseline has no stamp") {
		t.Errorf("unstamped baseline: %d failures, output:\n%s", got, buf.String())
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	want := &Report{
		Stamp:      Stamp{GoVersion: "go1.24.0", GOOS: "linux", GOARCH: "amd64", CPU: "x", GOMAXPROCS: 2},
		Benchmarks: []Record{{Name: "StageTokenize", Iterations: 10, NsPerOp: 42}},
	}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loadReport = %+v, want %+v", got, want)
	}
	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loadReport on a missing file returned no error")
	}
}

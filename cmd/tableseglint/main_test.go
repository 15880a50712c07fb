package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureRoot is the lint fixture module shared with the analysis
// package's golden tests: it contains known findings (and the clean
// negative-control package util), so the CLI's exit codes and output
// formats can be exercised end to end without a subprocess.
var fixtureRoot = filepath.Join("..", "..", "internal", "analysis", "testdata", "lintmod")

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-root", fixtureRoot, "util")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-root", fixtureRoot, "internal/csp")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "[determinism]") {
		t.Errorf("findings output missing analyzer tag:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr)
	}
}

func TestExitUsageErrorsAreTwo(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-json", "-sarif"},
		{"-root", t.TempDir()}, // no go.mod: load error
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

// TestDeterministicGlobalOrder runs the whole fixture module (several
// packages) twice and requires byte-identical, file:line-sorted text.
func TestDeterministicGlobalOrder(t *testing.T) {
	_, first, _ := runCLI(t, "-root", fixtureRoot)
	_, second, _ := runCLI(t, "-root", fixtureRoot)
	if first != second {
		t.Fatal("two runs over the same tree differ")
	}
	lineRe := regexp.MustCompile(`^(.*\.go):(\d+):(\d+): `)
	var prev string
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable finding line: %q", line)
		}
		k := m[1] + "\x00" + pad(m[2]) + pad(m[3])
		if prev != "" && k < prev {
			t.Errorf("findings out of file:line order: %q after previous", line)
		}
		prev = k
	}
}

func pad(num string) string {
	return strings.Repeat("0", 8-len(num)) + num
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-json", "internal/csp")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var entries []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &entries); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	if len(entries) == 0 {
		t.Fatal("-json output empty for a package with findings")
	}
	for _, e := range entries {
		if e.Analyzer == "" || e.File == "" || e.Line == 0 || e.Message == "" {
			t.Errorf("incomplete JSON entry: %+v", e)
		}
	}
}

func TestJSONOutputCleanIsEmptyArray(t *testing.T) {
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-json", "util")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", strings.TrimSpace(stdout))
	}
}

func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-sarif", "internal/engine")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("not a single-run SARIF 2.1.0 log: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tableseglint" || len(run.Tool.Driver.Rules) != 18 {
		t.Errorf("driver = %q with %d rules, want tableseglint with 18", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"borrowflow", "poolsafe"} {
		if !ruleIDs[want] {
			t.Errorf("SARIF rules missing %s", want)
		}
	}
	seen := map[string]bool{}
	for _, r := range run.Results {
		if r.Message.Text == "" {
			t.Error("result with empty message")
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result ruleIndex %d does not resolve to %q", r.RuleIndex, r.RuleID)
		}
		seen[r.RuleID] = true
	}
	for _, want := range []string{"goroleak", "lockdiscipline", "chancontract"} {
		if !seen[want] {
			t.Errorf("engine fixture produced no %s result", want)
		}
	}
}

func TestListPrintsAllAnalyzers(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 18 {
		t.Fatalf("-list printed %d lines, want 18:\n%s", len(lines), stdout)
	}
	for _, name := range []string{"determinism", "rngflow", "probflow", "aliasflow", "wiredrift", "codecdrift", "borrowflow", "poolsafe"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
}

func TestAnalyzersSubset(t *testing.T) {
	// The csp fixture carries determinism, ctxdiscipline, floateq and
	// rngflow findings; restricted to floateq only those may remain.
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-analyzers", "floateq", "internal/csp")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.Contains(line, "[floateq]") {
			t.Errorf("non-floateq finding leaked through -analyzers: %q", line)
		}
	}
}

func TestAnalyzersUnknownIsUsageError(t *testing.T) {
	code, _, stderr := runCLI(t, "-root", fixtureRoot, "-analyzers", "nosuch")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", stderr)
	}
}

// TestTimingOutput checks -timing prints one line per package with
// per-analyzer durations.
func TestTimingOutput(t *testing.T) {
	_, _, stderr := runCLI(t, "-root", fixtureRoot, "-timing", "util")
	if !strings.Contains(stderr, "timing util") {
		t.Fatalf("-timing printed no line for util:\n%s", stderr)
	}
	for _, name := range []string{"determinism=", "ctxflow=", "httpresp="} {
		if !strings.Contains(stderr, name) {
			t.Errorf("-timing line missing %s:\n%s", name, stderr)
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
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
	if run.Tool.Driver.Name != "tableseglint" || len(run.Tool.Driver.Rules) != 19 {
		t.Errorf("driver = %q with %d rules, want tableseglint with 19", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"borrowflow", "poolsafe", "hotalloc"} {
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
	if len(lines) != 19 {
		t.Fatalf("-list printed %d lines, want 19:\n%s", len(lines), stdout)
	}
	for _, name := range []string{"determinism", "rngflow", "probflow", "aliasflow", "wiredrift", "codecdrift", "borrowflow", "poolsafe", "hotalloc"} {
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

// TestBaselineSuppression records the csp fixture's findings as a
// baseline, replays the run against it (everything suppressed, exit
// 0), then checks a truncated baseline lets the remainder through.
func TestBaselineSuppression(t *testing.T) {
	_, recorded, _ := runCLI(t, "-root", fixtureRoot, "-json", "internal/csp")
	dir := t.TempDir()
	full := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(full, []byte(recorded), 0o644); err != nil {
		t.Fatal(err)
	}

	code, stdout, stderr := runCLI(t, "-root", fixtureRoot, "-baseline", full, "internal/csp")
	if code != 0 {
		t.Fatalf("fully baselined run: exit = %d, want 0 (stdout: %s)", code, stdout)
	}
	if !strings.Contains(stderr, "baseline finding(s) suppressed") {
		t.Errorf("stderr missing suppression note: %s", stderr)
	}

	// Drop one entry: exactly one finding must survive.
	var entries []json.RawMessage
	if err := json.Unmarshal([]byte(recorded), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("csp fixture recorded only %d finding(s)", len(entries))
	}
	truncated, err := json.Marshal(entries[1:])
	if err != nil {
		t.Fatal(err)
	}
	partial := filepath.Join(dir, "partial.json")
	if err := os.WriteFile(partial, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ = runCLI(t, "-root", fixtureRoot, "-baseline", partial, "internal/csp")
	if code != 1 {
		t.Fatalf("partially baselined run: exit = %d, want 1", code)
	}
	if got := len(strings.Split(strings.TrimSpace(stdout), "\n")); got != 1 {
		t.Errorf("partially baselined run printed %d finding(s), want 1:\n%s", got, stdout)
	}
}

func TestBaselineUnreadableIsUsageError(t *testing.T) {
	code, _, _ := runCLI(t, "-root", fixtureRoot, "-baseline", filepath.Join(t.TempDir(), "missing.json"), "internal/csp")
	if code != 2 {
		t.Errorf("missing baseline file: exit = %d, want 2", code)
	}
}

// TestCacheWarmColdIdentical pins the acceptance contract of the
// diagnostic cache: a cold run that fills the cache, a warm run served
// from it, and an uncached run must produce byte-identical JSON.
func TestCacheWarmColdIdentical(t *testing.T) {
	cache := t.TempDir()
	codeCold, outCold, _ := runCLI(t, "-root", fixtureRoot, "-json", "-cache", cache)
	entries, err := os.ReadDir(cache)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold run left no cache entries (err=%v)", err)
	}
	codeWarm, outWarm, stderrWarm := runCLI(t, "-root", fixtureRoot, "-json", "-cache", cache, "-timing")
	codeOff, outOff, _ := runCLI(t, "-root", fixtureRoot, "-json")
	if codeCold != codeWarm || codeWarm != codeOff {
		t.Fatalf("exit codes differ: cold=%d warm=%d uncached=%d", codeCold, codeWarm, codeOff)
	}
	if outCold != outWarm {
		t.Error("warm-cache output differs from cold-cache output")
	}
	if outCold != outOff {
		t.Error("cached output differs from uncached output")
	}
	if !strings.Contains(stderrWarm, "(cached)") {
		t.Errorf("warm -timing run reported no cache hits:\n%s", stderrWarm)
	}
}

// copyFixtureTree copies the fixture module into a temp dir so edits
// do not touch the shared testdata tree.
func copyFixtureTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(fixtureRoot, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestCacheInvalidatedByDependencyEdit checks the Merkle keying: an
// edit to a package re-keys its importers, not just itself.
func TestCacheInvalidatedByDependencyEdit(t *testing.T) {
	root := copyFixtureTree(t)
	cache := t.TempDir()
	runCLI(t, "-root", root, "-json", "-cache", cache)
	before, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	// Append a comment to a leaf package: its key and every importer's
	// key must change, producing new cache entries.
	target := filepath.Join(root, "internal", "core", "fixture.go")
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(target, append(data, []byte("\n// touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, "-root", root, "-json", "-cache", cache)
	after, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Errorf("dependency edit added no cache entries: before=%d after=%d", len(before), len(after))
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

// TestBaselineStrict: a fully matching baseline passes, a stale entry
// fails the run (exit 1) with the entry listed, and the flag without
// -baseline is a usage error.
func TestBaselineStrict(t *testing.T) {
	_, recorded, _ := runCLI(t, "-root", fixtureRoot, "-json", "internal/csp")
	dir := t.TempDir()

	exact := filepath.Join(dir, "exact.json")
	if err := os.WriteFile(exact, []byte(recorded), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-root", fixtureRoot, "-baseline", exact, "-baseline-strict", "internal/csp")
	if code != 0 {
		t.Fatalf("exact baseline with -baseline-strict: exit = %d, want 0 (stderr: %s)", code, stderr)
	}

	var entries []map[string]any
	if err := json.Unmarshal([]byte(recorded), &entries); err != nil {
		t.Fatal(err)
	}
	entries = append(entries, map[string]any{
		"analyzer": "floateq",
		"file":     "internal/csp/fixture.go",
		"line":     1,
		"column":   1,
		"message":  "a finding that no longer occurs",
	})
	staleData, err := json.Marshal(entries)
	if err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, staleData, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = runCLI(t, "-root", fixtureRoot, "-baseline", stale, "-baseline-strict", "internal/csp")
	if code != 1 {
		t.Fatalf("stale baseline with -baseline-strict: exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "stale:") || !strings.Contains(stderr, "no longer occurs") {
		t.Errorf("stderr does not list the stale entry:\n%s", stderr)
	}
	// Without -baseline-strict the stale entry is tolerated.
	code, _, _ = runCLI(t, "-root", fixtureRoot, "-baseline", stale, "internal/csp")
	if code != 0 {
		t.Fatalf("stale baseline without strict: exit = %d, want 0", code)
	}

	if code, _, _ := runCLI(t, "-baseline-strict"); code != 2 {
		t.Errorf("-baseline-strict without -baseline: exit = %d, want 2", code)
	}
}

// TestAllocInventory pins the advisory artifact: -alloc-inventory over
// the fixture module exits 0 despite findings, the JSON carries every
// allocation kind the token fixture exercises, byKind totals agree,
// and two runs are byte-identical.
func TestAllocInventory(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-root", fixtureRoot, "-alloc-inventory")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (advisory) (stderr: %s)", code, stderr)
	}
	var inv struct {
		Schema string         `json:"schema"`
		Total  int            `json:"total"`
		ByKind map[string]int `json:"byKind"`
		Sites  []struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Kind string `json:"kind"`
		} `json:"sites"`
	}
	if err := json.Unmarshal([]byte(stdout), &inv); err != nil {
		t.Fatalf("-alloc-inventory output is not valid JSON: %v\n%s", err, stdout)
	}
	if inv.Schema != "tableseglint-alloc-inventory-v1" {
		t.Errorf("schema = %q", inv.Schema)
	}
	if inv.Total != len(inv.Sites) {
		t.Errorf("total = %d but %d sites listed", inv.Total, len(inv.Sites))
	}
	sum := 0
	for _, n := range inv.ByKind {
		sum += n
	}
	if sum != inv.Total {
		t.Errorf("byKind sums to %d, total is %d", sum, inv.Total)
	}
	for _, kind := range []string{"string-conv", "bytes-conv", "sprintf", "append-loop", "iface-box"} {
		if inv.ByKind[kind] == 0 {
			t.Errorf("inventory missing kind %q (byKind: %v)", kind, inv.ByKind)
		}
	}
	for _, s := range inv.Sites {
		if !strings.Contains(s.File, "internal/token") {
			t.Errorf("site outside the declared hot path: %+v", s)
		}
	}
	_, again, _ := runCLI(t, "-root", fixtureRoot, "-alloc-inventory")
	if stdout != again {
		t.Error("two -alloc-inventory runs differ")
	}
}

// TestAllocInventoryModeConflicts: the inventory is its own output
// mode and cannot be combined with the others.
func TestAllocInventoryModeConflicts(t *testing.T) {
	for _, extra := range [][]string{{"-json"}, {"-sarif"}, {"-analyzers", "hotalloc"}} {
		args := append([]string{"-root", fixtureRoot, "-alloc-inventory"}, extra...)
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("-alloc-inventory with %v: exit = %d, want 2", extra, code)
		}
	}
}

// TestCacheInvalidatedByHotPathsEdit checks the v3 key salt: editing
// lint/hotpaths.conf re-keys every package, exactly like a schema-lock
// edit does.
func TestCacheInvalidatedByHotPathsEdit(t *testing.T) {
	root := copyFixtureTree(t)
	cache := t.TempDir()
	runCLI(t, "-root", root, "-json", "-cache", cache)
	before, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	conf := filepath.Join(root, "lint", "hotpaths.conf")
	data, err := os.ReadFile(conf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(conf, append(data, []byte("# touched\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	runCLI(t, "-root", root, "-json", "-cache", cache)
	after, err := os.ReadDir(cache)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Errorf("hotpaths.conf edit added no cache entries: before=%d after=%d", len(before), len(after))
	}
}

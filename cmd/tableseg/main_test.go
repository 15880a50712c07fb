package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The Superpages worked example (§3 of the paper): three records with
// detail pages, small enough for in-process CLI tests.
const testList = `<html><head><title>Superpages</title></head><body>
<h1>Superpages</h1><p>Results - 3 Matching Listings</p>
<div><b>John Smith</b><br>221 Washington<br>New Holland<br>(740) 335-5555 <a href="d1">More Info</a></div>
<div><b>John Smith</b><br>221R Washington<br>Washington<br>(740) 335-5555 <a href="d2">More Info</a></div>
<div><b>George W. Smith</b><br>Findlay, OH<br>(419) 423-1212 <a href="d3">More Info</a></div>
<p>Copyright Superpages</p></body></html>`

var testDetails = []string{
	`<html><body><h1>Superpages</h1><h2>Listing Detail</h2><p>John Smith</p><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p><p>Map It</p></body></html>`,
	`<html><body><h1>Superpages</h1><h2>Listing Detail</h2><p>John Smith</p><p>221R Washington</p><p>Washington</p><p>(740) 335-5555</p><p>Map It</p></body></html>`,
	`<html><body><h1>Superpages</h1><h2>Listing Detail</h2><p>George W. Smith</p><p>Findlay, OH</p><p>(419) 423-1212</p><p>Map It</p></body></html>`,
}

// writeTestSite writes the example pages to a temp dir and returns the
// -list/-detail arguments addressing them.
func writeTestSite(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	list := filepath.Join(dir, "list.html")
	if err := os.WriteFile(list, []byte(testList), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"-list", list}
	for i, d := range testDetails {
		p := filepath.Join(dir, "d"+string(rune('1'+i))+".html")
		if err := os.WriteFile(p, []byte(d), 0o644); err != nil {
			t.Fatal(err)
		}
		args = append(args, "-detail", p)
	}
	return args
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestNegativeTimeoutRejected(t *testing.T) {
	args := append(writeTestSite(t), "-timeout", "-3s")
	code, _, stderr := runCLI(t, args...)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr, "negative -timeout") {
		t.Errorf("stderr %q does not mention the negative -timeout", stderr)
	}
}

func TestMissingInputsRejected(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "need at least one -list") {
		t.Errorf("stderr %q does not explain the missing inputs", stderr)
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	args := append(writeTestSite(t), "-method", "quantum")
	code, _, stderr := runCLI(t, args...)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown method "quantum"`) {
		t.Errorf("stderr %q does not name the bad method", stderr)
	}
}

func TestBadFlagRejected(t *testing.T) {
	code, _, _ := runCLI(t, "-no-such-flag")
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
}

var statsLine1 = regexp.MustCompile(`(?m)^stats: wall=\S+$`)
var statsLine2 = regexp.MustCompile(`(?m)^stats: wsat restarts=\d+ flips=\d+ cutRounds=\d+ emIters=\d+$`)
var statsStage = regexp.MustCompile(`(?m)^stats: stage=(\w+) calls=\d+ time=\S+$`)
var statsCache = regexp.MustCompile(`(?m)^stats: cache tokenHits=\d+ tokenMisses=\d+ templateHits=\d+ templateMisses=\d+$`)

func TestStatsOutputShape(t *testing.T) {
	args := append(writeTestSite(t), "-stats")
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	if !statsLine1.MatchString(stderr) {
		t.Errorf("stderr missing the wall-time line:\n%s", stderr)
	}
	if !statsLine2.MatchString(stderr) {
		t.Errorf("stderr missing the solver-effort line:\n%s", stderr)
	}
	if !statsCache.MatchString(stderr) {
		t.Errorf("stderr missing the cache-counter line:\n%s", stderr)
	}
	var stages []string
	for _, m := range statsStage.FindAllStringSubmatch(stderr, -1) {
		stages = append(stages, m[1])
	}
	want := []string{"Tokenize", "InduceTemplate", "SelectSlot", "Extract", "Observe", "Segment", "PostProcess"}
	if !reflect.DeepEqual(stages, want) {
		t.Errorf("stage lines = %v, want %v\nstderr:\n%s", stages, want, stderr)
	}
	if !strings.Contains(stdout, "record 1") {
		t.Errorf("stdout missing segmented records:\n%s", stdout)
	}
}

func TestResumeRequiresCacheDir(t *testing.T) {
	args := append(writeTestSite(t), "-resume")
	code, _, stderr := runCLI(t, args...)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-resume requires -cache-dir") {
		t.Errorf("stderr %q does not explain the -resume/-cache-dir coupling", stderr)
	}
}

func TestBatchConflictsWithSingleSiteFlags(t *testing.T) {
	args := append(writeTestSite(t), "-batch", "manifest.json")
	code, _, stderr := runCLI(t, args...)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr, "-batch conflicts") {
		t.Errorf("stderr %q does not explain the -batch conflict", stderr)
	}
}

func TestBatchRejectsBadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI(t, "-batch", path)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "bad -batch manifest") {
		t.Errorf("stderr %q does not name the bad manifest", stderr)
	}
}

// writeTestManifest writes the example site to disk twice (two tasks)
// and returns the manifest path.
func writeTestManifest(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	list := filepath.Join(dir, "list.html")
	if err := os.WriteFile(list, []byte(testList), 0o644); err != nil {
		t.Fatal(err)
	}
	var detailPaths []string
	for i, d := range testDetails {
		p := filepath.Join(dir, "d"+string(rune('1'+i))+".html")
		if err := os.WriteFile(p, []byte(d), 0o644); err != nil {
			t.Fatal(err)
		}
		detailPaths = append(detailPaths, p)
	}
	type mtask struct {
		ID      string   `json:"id"`
		Lists   []string `json:"lists"`
		Target  int      `json:"target"`
		Details []string `json:"details"`
	}
	manifest := []mtask{
		{ID: "alpha", Lists: []string{list}, Details: detailPaths},
		{ID: "beta", Lists: []string{list}, Details: detailPaths[:2]},
	}
	data, err := json.Marshal(manifest)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "manifest.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestBatchJSONOutputAndResume(t *testing.T) {
	manifest := writeTestManifest(t)
	cache := t.TempDir()

	code, cold, stderr := runCLI(t, "-batch", manifest, "-json", "-cache-dir", cache)
	if code != 0 {
		t.Fatalf("cold run exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	lines := strings.Split(strings.TrimRight(cold, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("cold run emitted %d JSONL lines, want 2:\n%s", len(lines), cold)
	}
	for i, line := range lines {
		var out struct {
			Index  int             `json:"index"`
			ID     string          `json:"id"`
			Output json.RawMessage `json:"output"`
			Error  string          `json:"error"`
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		if out.Index != i || out.Error != "" || len(out.Output) == 0 {
			t.Errorf("line %d = %+v, want index %d with output and no error", i, out, i)
		}
	}
	if !strings.Contains(lines[0], `"id":"alpha"`) || !strings.Contains(lines[1], `"id":"beta"`) {
		t.Errorf("JSONL lines are not in manifest order:\n%s", cold)
	}

	code, warm, stderr := runCLI(t, "-batch", manifest, "-json", "-cache-dir", cache, "-resume", "-stats")
	if code != 0 {
		t.Fatalf("resumed run exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	if warm != cold {
		t.Errorf("resumed output differs from the cold run:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}
	if !strings.Contains(stderr, "stats: batch tasks=2 errors=0 resumed=2") {
		t.Errorf("resumed run stderr missing the batch summary:\n%s", stderr)
	}
}

// TestWarmDiskCacheStats pins the warm-cache acceptance at the CLI: a
// second process over the same -cache-dir re-tokenizes nothing.
func TestWarmDiskCacheStats(t *testing.T) {
	cache := t.TempDir()
	args := append(writeTestSite(t), "-stats", "-cache-dir", cache)
	code, _, _ := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("cold run exit code = %d, want 0", code)
	}
	code, _, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("warm run exit code = %d, want 0", code)
	}
	if !strings.Contains(stderr, "stats: cache tokenHits=4 tokenMisses=0 templateHits=1 templateMisses=0") {
		t.Errorf("warm run stderr missing the all-hits cache line:\n%s", stderr)
	}
	if !regexp.MustCompile(`(?m)^stats: cache tier=disk hits=\d+ misses=\d+ puts=\d+ evictions=\d+ errors=\d+ entries=\d+ bytes=\d+$`).MatchString(stderr) {
		t.Errorf("warm run stderr missing the disk-tier line:\n%s", stderr)
	}
}

func TestJSONOutputShape(t *testing.T) {
	args := append(writeTestSite(t), "-json")
	code, stdout, stderr := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
	var out struct {
		Method  string `json:"method"`
		Records []struct {
			Record   int      `json:"record"`
			Extracts []string `json:"extracts"`
		} `json:"records"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatalf("stdout is not valid JSON: %v\n%s", err, stdout)
	}
	if out.Method == "" || len(out.Records) == 0 {
		t.Errorf("JSON output missing method/records: %+v", out)
	}
}

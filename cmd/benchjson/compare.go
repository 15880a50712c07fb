package main

// Baseline gate: `benchjson -baseline BENCH_stages.json` checks the
// freshly parsed report against the committed one. allocs/op is
// deterministic for a given toolchain and code, so it gates: the run
// fails when any baseline row's allocs/op grew, when a baseline row is
// missing from the run (renaming a benchmark cannot dodge the gate), or
// when the run's Go version, goos or goarch differs from the baseline's
// stamp (allocation counts are only comparable under the same
// toolchain; re-record with `make bench-stages`). ns/op jitters on
// shared machines, so its growth beyond nsTolerancePct is printed as a
// warning and never fails the run. `make bench-check` wires this up.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// nsTolerancePct is the ns/op growth, in percent, beyond which a
// benchmark is reported as slower (advisory only).
const nsTolerancePct = 30

// loadReport reads a report previously written by benchjson -out.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: reading baseline: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchjson: parsing baseline %s: %w", path, err)
	}
	return &r, nil
}

// compare writes one line per gate failure, ns/op warning, allocs/op
// improvement and new benchmark to w, and returns the number of gate
// failures.
func compare(w io.Writer, baseline, current *Report) int {
	failures := 0
	fail := func(format string, args ...any) {
		failures++
		fmt.Fprintf(w, "benchjson: FAIL "+format+"\n", args...)
	}
	bs, cs := baseline.Stamp, current.Stamp
	if bs.GoVersion != cs.GoVersion || bs.GOOS != cs.GOOS || bs.GOARCH != cs.GOARCH {
		recorded := fmt.Sprintf("was recorded with %s %s/%s", bs.GoVersion, bs.GOOS, bs.GOARCH)
		if bs == (Stamp{}) {
			recorded = "has no stamp"
		}
		fail("run is %s %s/%s but the baseline %s; re-record it with `make bench-stages`",
			cs.GoVersion, cs.GOOS, cs.GOARCH, recorded)
	}

	cur := make(map[string]Record, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		cur[r.Name] = r
	}
	for _, prev := range baseline.Benchmarks {
		r, ok := cur[prev.Name]
		if !ok {
			fail("%s: in the baseline but not in this run", prev.Name)
			continue
		}
		switch {
		case prev.AllocsPerOp == nil:
		case r.AllocsPerOp == nil:
			fail("%s: no allocs/op in this run (run with -benchmem)", r.Name)
		case *r.AllocsPerOp > *prev.AllocsPerOp:
			fail("%s: allocs/op grew %d -> %d", r.Name, *prev.AllocsPerOp, *r.AllocsPerOp)
		case *r.AllocsPerOp < *prev.AllocsPerOp:
			fmt.Fprintf(w, "benchjson: %s: allocs/op fell %d -> %d; re-record with `make bench-stages` to lock it in\n",
				r.Name, *prev.AllocsPerOp, *r.AllocsPerOp)
		}
		if prev.NsPerOp > 0 {
			if deltaPct := (r.NsPerOp - prev.NsPerOp) / prev.NsPerOp * 100; deltaPct > nsTolerancePct {
				fmt.Fprintf(w, "benchjson: %s: ns/op grew %+.1f%% (%.0f -> %.0f), beyond %d%% (advisory)\n",
					r.Name, deltaPct, prev.NsPerOp, r.NsPerOp, nsTolerancePct)
			}
		}
		delete(cur, prev.Name)
	}
	added := make([]string, 0, len(cur))
	for name := range cur {
		added = append(added, name)
	}
	sort.Strings(added)
	for _, name := range added {
		fmt.Fprintf(w, "benchjson: %s: new benchmark, not in the baseline\n", name)
	}
	if failures > 0 {
		fmt.Fprintf(w, "benchjson: %d allocs/op gate failure(s)\n", failures)
	}
	return failures
}

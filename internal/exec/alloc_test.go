package exec

import (
	"testing"

	"benu/internal/estimate"
	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/plan"
)

// TestExecutorSteadyStateAllocs pins the allocation behavior of the hot
// enumeration loop on the compact read path: once the DB cache is warm
// and every scratch buffer has grown to its working size, re-running
// tasks must allocate (almost) nothing — no per-embedding garbage, no
// per-instruction set copies, no per-prefetch scratch. A regression
// here is exactly the failure mode that cost the compact data plane its
// wall-clock win when it landed (see docs/PERFORMANCE.md).
func TestExecutorSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; AllocsPerRun counts are not meaningful")
	}
	g := gen.ErdosRenyi(200, 1600, 42)
	ord := graph.NewTotalOrder(g)
	st := estimate.NewStats(g, estimate.MaxMomentDefault)
	for _, tc := range []struct {
		name string
		p    *graph.Pattern
	}{
		{"triangle", gen.Triangle()},
		{"q4", gen.Q(4)},
		{"square", gen.Square()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := plan.GenerateBestPlan(tc.p, st, plan.OptimizedUncompressed)
			if err != nil {
				t.Fatalf("GenerateBestPlan: %v", err)
			}
			prog, err := Compile(res.Plan)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			src := NewCachedSourceWith(kv.NewLocal(g), g.SizeBytes()*4, SourceOptions{Compact: true})
			e := NewExecutor(prog, src, g.NumVertices(), ord, Options{
				Prefetch:         true,
				CompactAdjacency: true,
			})
			sweep := func() {
				for v := 0; v < g.NumVertices(); v++ {
					if _, err := e.Run(Task{Start: int64(v)}); err != nil {
						t.Fatalf("Run(start=%d): %v", v, err)
					}
				}
			}
			sweep() // warm: fill the cache, size every scratch buffer
			if e.Stats().Matches == 0 {
				t.Fatal("graph has no matches; the test exercises nothing")
			}
			allocs := testing.AllocsPerRun(5, sweep)
			// One full sweep is numVertices tasks and (for these patterns)
			// thousands of embeddings. Budget a handful of stray
			// allocations (sync.Pool refills after a GC) — anything per
			// task or per embedding lands far above this.
			if allocs > 8 {
				t.Errorf("steady-state sweep allocates %.1f times (budget 8): "+
					"per-task or per-embedding garbage crept back into the hot loop", allocs)
			}
		})
	}
}

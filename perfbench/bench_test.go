package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"testing"

	"benu/internal/gen"
	"benu/internal/graph"
	"benu/internal/kv"
	"benu/internal/obs"
)

func testGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{N: 400, M0: 4, EdgesPer: 3, Triad: 0.2, Seed: 5})
}

// The decorator hands back the very lists the wrapped store returned.
func TestStoreProbeReturnsIdenticalLists(t *testing.T) {
	g := testGraph()
	inner := kv.NewLocal(g)
	var st callStats
	p := &storeProbe{inner: inner, stats: &st}
	vs := []int64{0, 7, 399, 7, 123}
	want, err := inner.GetAdjBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.GetAdjBatch(vs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d lists, want %d", len(got), len(want))
	}
	var wantBytes int64
	for i := range want {
		if !bytes.Equal(got[i].Bytes(), want[i].Bytes()) {
			t.Errorf("list %d (vertex %d) differs", i, vs[i])
		}
		wantBytes += want[i].SizeBytes()
	}
	if st.calls.Load() != 1 || st.keys.Load() != int64(len(vs)) || st.bytes.Load() != wantBytes || st.errors.Load() != 0 {
		t.Errorf("counted calls=%d keys=%d bytes=%d errors=%d, want 1, %d, %d, 0",
			st.calls.Load(), st.keys.Load(), st.bytes.Load(), st.errors.Load(), len(vs), wantBytes)
	}
	if st.lat.Count() != 1 || st.busyNs.Load() <= 0 {
		t.Errorf("latency not recorded: count=%d busy=%dns", st.lat.Count(), st.busyNs.Load())
	}
	if p.NumVertices() != g.NumVertices() {
		t.Errorf("NumVertices = %d, want %d", p.NumVertices(), g.NumVertices())
	}
}

// A failing batch comes back as (nil, the wrapped store's error): the
// SPI's fail-fast, no-partial-results contract survives the decorator.
func TestStoreProbeKeepsFailFastContract(t *testing.T) {
	g := testGraph()
	shard := kv.NewMapStore(kv.Shard(g, 0, 2), g.NumVertices())
	var st callStats
	p := &storeProbe{inner: shard, stats: &st, spans: newSpanLog()}
	// Vertex 0 is in shard 0; vertex 1 is not, so the batch must fail
	// as a whole even though its first key is served.
	vs := []int64{0, 1}
	_, wantErr := shard.GetAdjBatch(vs)
	if wantErr == nil {
		t.Fatal("shard served a vertex it does not store")
	}
	got, err := p.GetAdjBatch(vs)
	if got != nil {
		t.Errorf("failed batch returned %d lists, want nil", len(got))
	}
	if err == nil || err.Error() != wantErr.Error() {
		t.Errorf("error = %v, want %v", err, wantErr)
	}
	if st.errors.Load() != 1 || st.keys.Load() != 0 || st.bytes.Load() != 0 {
		t.Errorf("counted errors=%d keys=%d bytes=%d, want 1, 0, 0", st.errors.Load(), st.keys.Load(), st.bytes.Load())
	}
	// The fault-injection decorator underneath must surface unchanged.
	faulty := kv.NewFaulty(kv.NewLocal(g))
	faulty.FailEveryN = 1
	p = &storeProbe{inner: faulty, stats: &st}
	if got, err := p.GetAdjBatch([]int64{2, 3}); got != nil || err == nil {
		t.Errorf("injected fault: got %v, %v; want nil and an error", got, err)
	}
}

func TestCountConnCountsBothDirections(t *testing.T) {
	a, b := net.Pipe()
	var st connStats
	c := st.wrap(a)
	defer c.Close()
	defer b.Close()
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, 5)
		if _, err := io.ReadFull(b, buf); err != nil {
			done <- err
			return
		}
		_, err := b.Write([]byte("pong!!!"))
		done <- err
	}()
	if _, err := c.Write([]byte("ping!")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st.writes.Load() != 1 || st.writeBytes.Load() != 5 || st.readBytes.Load() != 7 {
		t.Errorf("writes=%d written=%d read=%d, want 1, 5, 7", st.writes.Load(), st.writeBytes.Load(), st.readBytes.Load())
	}
}

// Tracing only observes: a traced job commits the same match count as
// an untraced one, and both equal the reference.
func TestTracedMatchesUntraced(t *testing.T) {
	sizes := map[string]int{"tri-local": 3000, "q1-local": 300, "tri-net": 800}
	for _, w := range workloads() {
		t.Run(w.name, func(t *testing.T) {
			w.graph.N = sizes[w.name]
			in, err := makeInput(w, 3)
			if err != nil {
				t.Fatal(err)
			}
			if in.want == 0 {
				t.Fatal("reference count is 0; the check would be vacuous")
			}
			spans := newSpanLog()
			for job, traced := range []bool{false, true} {
				it := &iteration{in: in, job: job, reg: obs.NewRegistry(), out: t.TempDir()}
				if traced {
					it.tr = &tracer{spans: spans, layers: map[string]float64{}}
				}
				js := runIteration(w, it)
				if js.err != nil {
					t.Fatalf("traced=%v: %v", traced, js.err)
				}
				if js.out.matches != in.want {
					t.Fatalf("traced=%v: %d matches, want %d", traced, js.out.matches, in.want)
				}
				// The executors' own count also covers attempts the
				// master dropped as duplicates, so it may exceed the
				// committed count on tri-net, never fall short of it.
				if traced && js.layers["exec.matches"] < float64(in.want) {
					t.Errorf("exec.matches = %v, want at least %d", js.layers["exec.matches"], in.want)
				}
				if traced && js.layers["kv.calls"] == 0 {
					t.Error("traced job recorded no store calls")
				}
			}
			if len(spans.spans) == 0 {
				t.Error("traced job recorded no spans")
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-test compares.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []fileMetric `json:"end_to_end"`
	PerLayer []fileMetric `json:"per_layer"`
}

// fileMetric is one metric entry; per-layer entries have no bound.
type fileMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	return f
}

// The metrics the command prints, and their units, are exactly the
// ones BENCHMARK.json declares, in both modes.
func TestPrintedMetricsMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, mode := range []struct {
		trace string
		want  map[string]string
	}{
		{"0", units(f.EndToEnd)},
		{"1", units(f.PerLayer)},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "q1-local", "--seed", "2", "--seconds", "0", "--trace", mode.trace, "--out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("--trace %s: exit %d: %s", mode.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("--trace %s: last line is not a result: %v", mode.trace, err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Errorf("--trace %s: correct=%v attempted=%d failed=%d", mode.trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		got := map[string]string{}
		for name, v := range rep.Metrics {
			got[name] = v.Unit
		}
		if !reflect.DeepEqual(got, mode.want) {
			t.Errorf("--trace %s printed %v\nBENCHMARK.json declares %v", mode.trace, got, mode.want)
		}
	}
}

// units maps each declared metric to its unit.
func units(ms []fileMetric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// The code's metric and workload tables agree with BENCHMARK.json,
// bounds and directions included.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	f := readBenchmarkFile(t)
	var fileE2E, codeE2E, fileLayer, codeLayer, fileW, codeW []string
	for _, m := range f.EndToEnd {
		fileE2E = append(fileE2E, describe(m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		codeE2E = append(codeE2E, describe(m.name, m.unit, m.better, m.bound))
	}
	for _, m := range f.PerLayer {
		fileLayer = append(fileLayer, describe(m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range perLayer {
		codeLayer = append(codeLayer, describe(m.name, m.unit, m.better, 0))
	}
	for _, w := range f.Workloads {
		fileW = append(fileW, w.Name)
	}
	for _, w := range workloads() {
		codeW = append(codeW, w.name)
	}
	for _, c := range []struct {
		what       string
		file, code []string
	}{{"end_to_end", fileE2E, codeE2E}, {"per_layer", fileLayer, codeLayer}, {"workloads", fileW, codeW}} {
		if strings.Join(c.file, "\n") != strings.Join(c.code, "\n") {
			t.Errorf("%s differ:\nBENCHMARK.json:\n%s\ncode:\n%s", c.what, strings.Join(c.file, "\n"), strings.Join(c.code, "\n"))
		}
	}
}

func describe(name, unit, better string, bound float64) string {
	b, _ := json.Marshal([]any{name, unit, better, bound})
	return string(b)
}

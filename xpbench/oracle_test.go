package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCorruptedReferenceFails shows the output checks bite: with one
// byte of one expected output flipped, the ops that serve it count as
// failed, and before the flip none do.
func TestCorruptedReferenceFails(t *testing.T) {
	b := &serveBench{factors: []float64{0.002, 0.004}}
	if err := b.prepare(&config{seed: 7, seconds: time.Second, work: t.TempDir()}); err != nil {
		t.Fatal(err)
	}
	inst, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	cycle, _ := inst.shape()
	run := func() *phase {
		inst.startPhase()
		return measure(200*time.Millisecond, cycle, 0, inst.op, nil)
	}
	if p := run(); p.failed() != 0 {
		t.Fatalf("%d of %d ops failed against intact references", p.failed(), p.attempted())
	}
	low := b.exp[0].low
	low[len(low)/2] ^= 0x20
	p := run()
	if p.failed() == 0 {
		t.Fatalf("no op failed after corrupting one expected byte (%d ops)", p.attempted())
	}
	if p.failed() == p.attempted() {
		t.Fatalf("every op failed; only those serving the corrupted output should")
	}
}

// TestQueryAnswerChecked flips one byte of one reference answer of the
// query loop and expects exactly that query to fail.
func TestQueryAnswerChecked(t *testing.T) {
	b := &queryBench{}
	if err := b.prepare(&config{seed: 7}); err != nil {
		t.Fatal(err)
	}
	inst, err := b.setup()
	if err != nil {
		t.Fatal(err)
	}
	qi := -1
	for i, r := range b.ref {
		if len(r) > 0 && len(r) < 1<<16 {
			qi = i
			break
		}
	}
	if qi < 0 {
		t.Fatal("no small reference answer")
	}
	in := inst.(*queryInst)
	if s := in.do(qi); s.failed {
		t.Fatal("intact reference answer failed")
	}
	ref := []byte(b.ref[qi])
	ref[len(ref)/2] ^= 0x20
	b.ref[qi] = string(ref)
	if s := in.do(qi); !s.failed {
		t.Fatal("corrupted reference answer passed")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bj struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []entry, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the table %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the table %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, layerMetrics)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the program", w.Name)
		}
	}
}

// TestOutputComparers checks the two comparers that check outputs
// without copying them: the files_sweep sink and the multipart part
// reader.
func TestOutputComparers(t *testing.T) {
	want := []byte("<site><regions><africa/></regions></site>")
	sinkGets := func(pieces ...[]byte) bool {
		s := &fileSink{path: filepath.Join(t.TempDir(), "out.xml"), want: want}
		for _, p := range pieces {
			if _, err := s.Write(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return s.matched()
	}
	bad := bytes.Clone(want)
	bad[len(bad)/2] ^= 0x20
	if !sinkGets(want[:7], want[7:]) {
		t.Error("sink rejected the expected output written in two pieces")
	}
	if sinkGets(bad) || sinkGets(want[:7]) || sinkGets(want, []byte("x")) {
		t.Error("sink accepted a corrupted, short or long output")
	}
	scratch := make([]byte, 5)
	if !readEqual(bytes.NewReader(want), want, scratch) {
		t.Error("readEqual rejected equal bytes")
	}
	for _, got := range [][]byte{bad, want[:7], append(bytes.Clone(want), 'x')} {
		if readEqual(bytes.NewReader(got), want, scratch) {
			t.Errorf("readEqual accepted %q", got)
		}
	}
}

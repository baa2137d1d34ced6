package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// smallInputs sets up the named workload with its traces cut to jobs jobs.
func smallInputs(t *testing.T, name string, seed int64, jobs int) []*input {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	w.jobs = jobs
	ins, err := setup(w, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cleanup(ins) })
	return ins
}

// smallInput sets up the first trace of the named workload, cut to jobs
// jobs.
func smallInput(t *testing.T, name string, seed int64, jobs int) *input {
	return smallInputs(t, name, seed, jobs)[0]
}

// TestHeldOutSeedPasses runs every workload, cut down, on a seed other
// than the one the benchmark was tuned on: every operation must pass the
// gate.
func TestHeldOutSeedPasses(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			ins := smallInputs(t, w.name, 2, 400)
			s := newSession(ins, io.Discard)
			if _, _, _, err := s.pass(0, newTracer(), map[string]int64{}); err != nil {
				t.Fatal(err)
			}
			if s.failed != 0 {
				t.Fatalf("%d of %d operations failed", s.failed, s.attempted)
			}
		})
	}
}

// truncated yields the first keep jobs of src. With lie set its Meta
// still promises all of them, as a file cut short behind its header
// would; otherwise the Meta matches what it yields.
type truncated struct {
	src  workload.Source
	keep int
	lie  bool
	n    int
}

func (s *truncated) Meta() workload.Meta {
	m := s.src.Meta()
	if !s.lie {
		m.NumJobs = s.keep
	}
	return m
}

func (s *truncated) Next() (*workload.Job, bool) {
	if s.n >= s.keep {
		return nil, false
	}
	s.n++
	return s.src.Next()
}

func TestGateCountsTruncatedSourceAsFailure(t *testing.T) {
	for _, lie := range []bool{true, false} {
		in := smallInput(t, "google-stream", 1, 300)
		open := in.open
		in.open = func() (workload.Source, func() error, error) {
			src, release, err := open()
			return &truncated{src: src, keep: 200, lie: lie}, release, err
		}
		s := newSession([]*input{in}, io.Discard)
		if _, _, _, err := s.pass(0, nil, nil); err == nil {
			t.Fatalf("lie=%v: a truncated source passed the gate", lie)
		}
		if s.attempted != minOps || s.failed != minOps {
			t.Fatalf("lie=%v: %d of %d operations counted as failed, want all", lie, s.failed, s.attempted)
		}
	}
}

func TestGateCountsTamperedReportAsFailure(t *testing.T) {
	in := smallInput(t, "centralized", 1, 300)
	rec, _, ref, err := runOp(in, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(*policy.Report)
	}{
		{"untampered", func(*policy.Report) {}},
		{"runtime changed", func(r *policy.Report) { r.Jobs[0].Runtime++ }},
		{"makespan changed", func(r *policy.Report) { r.Makespan++ }},
		{"job dropped", func(r *policy.Report) { r.Jobs = r.Jobs[1:] }},
		{"task lost", func(r *policy.Report) { r.TasksExecuted-- }},
	}
	for _, c := range cases {
		rep, err := sim.Run(in.trace, in.cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.edit(rep)
		r := rec
		sig, err := summarise(rep, &r, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		err = gate(in, r, rep, sig, ref)
		if tampered := c.name != "untampered"; tampered != (err != nil) {
			t.Errorf("%s: gate returned %v", c.name, err)
		}
	}
}

// perturbed lengthens the first task of job 0 by a second, on a copy.
type perturbed struct{ workload.Source }

func (p perturbed) Next() (*workload.Job, bool) {
	j, ok := p.Source.Next()
	if ok && j.ID == 0 {
		c := *j
		c.Durations = append([]float64(nil), j.Durations...)
		c.Durations[0]++
		j = &c
	}
	return j, ok
}

// TestPassCountsChangedReportAsFailure feeds every operation after the
// first a slightly different trace: the report changes, and the run counts
// those operations as failed.
func TestPassCountsChangedReportAsFailure(t *testing.T) {
	in := smallInput(t, "centralized", 1, 300)
	open, calls := in.open, 0
	in.open = func() (workload.Source, func() error, error) {
		src, release, err := open()
		if calls++; calls > 1 {
			src = perturbed{src}
		}
		return src, release, err
	}
	s := newSession([]*input{in}, io.Discard)
	if _, _, _, err := s.pass(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if s.attempted != minOps || s.failed != minOps-1 {
		t.Fatalf("%d of %d operations counted as failed, want %d", s.failed, s.attempted, minOps-1)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*CentralQueue).Assign":                                             "repro/internal/core",
		"repro/internal/eventq.(*Engine[go.shape.struct { repro/internal/sim.kind uint8 }]).Run": "repro/internal/eventq",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "internal/runtime/maps",
		"compress/flate.(*decompressor).huffSym":  "compress/flate",
		"main.run.func1":                          "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// protoBuf encodes the few protobuf shapes a pprof profile uses.
type protoBuf []byte

func (p *protoBuf) varint(num int, v uint64) {
	*p = binary.AppendUvarint(binary.AppendUvarint(*p, uint64(num)<<3), v)
}

func (p *protoBuf) bytes(num int, b []byte) {
	*p = binary.AppendUvarint(*p, uint64(num)<<3|2)
	*p = append(binary.AppendUvarint(*p, uint64(len(b))), b...)
}

func (p *protoBuf) packed(num int, vs ...uint64) {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	p.bytes(num, inner)
}

// TestFoldProfileFixedInput folds a hand-built profile whose stacks cover
// each attribution rule.
func TestFoldProfileFixedInput(t *testing.T) {
	funcs := []string{
		"repro/internal/core.(*CentralQueue).Assign",        // 1
		"runtime.mallocgc",                                  // 2
		"compress/flate.(*decompressor).huffSym",            // 3
		"repro/internal/workload.(*FileSource).Next",        // 4
		"repro/internal/eventq.(*Engine[go.shape.int]).Run", // 5
		"main.run",           // 6
		"strconv.ParseFloat", // 7
		"repro/internal/policy.(*Report).WriteJSON", // 8
		"encoding/json.(*encodeState).marshal",      // 9
		"sort.insertionSort",                        // 10
		"repro/internal/stats.Percentile",           // 11
	}
	// Each location lists its functions innermost first; location 7 is
	// strconv inlined into the workload decoder.
	locs := [][]uint64{{1}, {2}, {3}, {4}, {5}, {6}, {7, 4}, {9}, {8}, {10}, {11}}
	samples := []struct {
		stack  []uint64
		count  uint64
		packed bool
	}{
		{[]uint64{1, 6}, 5, true},     // core
		{[]uint64{2, 1, 6}, 3, true},  // runtime leaf: runtime
		{[]uint64{3, 4, 6}, 4, false}, // stdlib leaf: its caller, workload
		{[]uint64{5, 6}, 2, true},     // generic eventq method
		{[]uint64{7, 6}, 1, true},     // inlined strconv: workload
		{[]uint64{8, 9, 6}, 6, true},  // stdlib leaf under policy
		{[]uint64{10}, 1, true},       // no layer on the stack: other
		{[]uint64{6}, 2, true},        // the benchmark itself: other
		{[]uint64{11, 6}, 2, true},    // stats folds into policy
	}
	var p protoBuf
	strs := append([]string{"", "samples", "count", "cpu", "nanoseconds"}, funcs...)
	for _, s := range samples {
		var m protoBuf
		if s.packed {
			m.packed(sampleLocationID, s.stack...)
		} else {
			for _, l := range s.stack {
				m.varint(sampleLocationID, l)
			}
		}
		m.packed(sampleValue, s.count, s.count*10_000_000)
		p.bytes(profileSample, m)
	}
	for i, fns := range locs {
		var m protoBuf
		m.varint(locationID, uint64(i+1))
		for _, fn := range fns {
			var line protoBuf
			line.varint(lineFunction, fn)
			line.varint(2, 42)
			m.bytes(locationLine, line)
		}
		p.bytes(profileLocation, m)
	}
	for i := range funcs {
		var m protoBuf
		m.varint(functionID, uint64(i+1))
		m.varint(functionName, uint64(5+i))
		p.bytes(profileFunction, m)
	}
	for _, s := range strs {
		p.bytes(profileStringTable, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p)
	zw.Close()

	got := map[string]int64{}
	total, err := foldProfile(gz.Bytes(), got)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"core": 5, "runtime": 3, "workload": 5, "eventq": 2, "policy": 6 + 2, "other": 3}
	if total != 26 {
		t.Errorf("total = %d, want 26", total)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("%s = %d, want %d (all: %v)", l, got[l], n, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("layers %v, want %v", got, want)
	}

	if _, err := foldProfile(gz.Bytes()[:gz.Len()/2], map[string]int64{}); err == nil {
		t.Error("a truncated profile folded without error")
	}
}

// spin burns CPU in this package for at least d.
func spin(d time.Duration) (x uint64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestFoldProfileFromRuntime folds a profile runtime/pprof wrote, so the
// decoder keeps up with the format the toolchain emits.
func TestFoldProfileFromRuntime(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	got := map[string]int64{}
	total, err := foldProfile(buf.Bytes(), got)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for l, n := range got {
		if !slices.Contains(layers, l) {
			t.Errorf("unknown layer %q", l)
		}
		sum += n
	}
	if sum != total {
		t.Errorf("layers sum to %d, total %d", sum, total)
	}
	if total > 0 && got["other"] == 0 {
		t.Errorf("no sample charged to the spinning test code: %v", got)
	}
}

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// TestLayerOf covers the frame-to-layer rule, including generic
// instantiations and closures.
func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		fn    string
		layer string
		ok    bool
	}{
		{"muxwise/internal/sim.(*Sim).RunUntil", "sim", true},
		{"muxwise/internal/cluster/epp.(*Affinity[go.shape.*uint8]).Match", "cluster", true},
		{"muxwise/internal/cluster/epp.New[go.shape.*muxwise/internal/cluster.Replica]", "cluster", true},
		{"muxwise/internal/serve.Run.func1", "serve", true},
		{"muxwise/internal/windserve.(*Engine).Submit", "baselines", true},
		{"muxwise/internal/par.RunIndexed", "other", true},
		{"muxwise.(*Experiment).Run", "", false},
		{"runtime.gcBgMarkWorker", "", false},
		{"main.runProbe", "", false},
	} {
		layer, ok := layerOf(c.fn)
		if layer != c.layer || ok != c.ok {
			t.Errorf("layerOf(%q) = %q, %v; want %q, %v", c.fn, layer, ok, c.layer, c.ok)
		}
	}
}

// profileBuilder encodes the subset of profile.proto cpuShares reads.
type profileBuilder struct {
	strs    []string
	funcs   map[string]uint64
	body    []byte
	nextLoc uint64
}

func newProfileBuilder() *profileBuilder {
	return &profileBuilder{strs: []string{""}, funcs: map[string]uint64{}}
}

func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, data []byte) []byte {
	b = binary.AppendUvarint(b, uint64(num)<<3|2)
	return append(binary.AppendUvarint(b, uint64(len(data))), data...)
}

func (p *profileBuilder) fn(name string) uint64 {
	if id, ok := p.funcs[name]; ok {
		return id
	}
	id := uint64(len(p.funcs) + 1)
	p.funcs[name] = id
	p.strs = append(p.strs, name)
	var f []byte
	f = pbVarint(f, 1, id)
	f = pbVarint(f, 2, uint64(len(p.strs)-1))
	p.body = pbBytes(p.body, 5, f)
	return id
}

// location adds one location whose lines are the given functions,
// innermost (inlined) first.
func (p *profileBuilder) location(names ...string) uint64 {
	p.nextLoc++
	var l []byte
	l = pbVarint(l, 1, p.nextLoc)
	for _, n := range names {
		l = pbBytes(l, 4, pbVarint(nil, 1, p.fn(n)))
	}
	p.body = pbBytes(p.body, 4, l)
	return p.nextLoc
}

// sample adds a sample of ns CPU nanoseconds over the stack, leaf first.
func (p *profileBuilder) sample(ns int64, locs ...uint64) {
	var ids []byte
	for _, l := range locs {
		ids = binary.AppendUvarint(ids, l)
	}
	var vals []byte
	vals = binary.AppendUvarint(vals, 1)
	vals = binary.AppendUvarint(vals, uint64(ns))
	var s []byte
	s = pbBytes(s, 1, ids)
	s = pbBytes(s, 2, vals)
	p.body = pbBytes(p.body, 2, s)
}

func (p *profileBuilder) gzipped(t *testing.T) []byte {
	msg := p.body
	for _, s := range p.strs {
		msg = pbBytes(msg, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCPUSharesInnermostFrame charges each sample to its innermost
// muxwise/internal frame: a runtime leaf under a layer goes to that
// layer, an inlined layer frame counts before its caller, a generic
// epp frame goes to cluster, and a stack with no muxwise frame at all
// goes to runtime.
func TestCPUSharesInnermostFrame(t *testing.T) {
	p := newProfileBuilder()
	malloc := p.location("runtime.mallocgc")
	token := p.location("muxwise/internal/metrics.(*Recorder).Token")
	step := p.location("muxwise/internal/serve.(*Batch).StepInto")
	inlined := p.location("muxwise/internal/kvcache.(*Pool).Match", "muxwise/internal/serve.Admit")
	match := p.location("muxwise/internal/cluster/epp.(*Affinity[go.shape.*uint8]).Match")
	run := p.location("muxwise.(*Experiment).Run")
	gc := p.location("runtime.gcBgMarkWorker")

	p.sample(40, malloc, token, step, run) // → metrics
	p.sample(10, inlined, run)             // → kvcache, not serve
	p.sample(20, match, run)               // → cluster
	p.sample(30, gc)                       // → runtime
	got, err := cpuShares(p.gzipped(t))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"metrics": 0.4, "kvcache": 0.1, "cluster": 0.2, "runtime": 0.3}
	for layer, w := range want {
		if math.Abs(got[layer]-w) > 1e-12 {
			t.Errorf("%s share = %g, want %g", layer, got[layer], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("shares %v, want only %v", got, want)
	}
}

// TestCPUSharesRejectsGarbage: a profile that is not gzipped protobuf is
// an error, not a panic or an empty result.
func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := cpuShares(newProfileBuilder().gzipped(t)); err == nil {
		t.Error("profile without samples accepted")
	}
}

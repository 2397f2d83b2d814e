package estimator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/sim"
)

// profileCase is one (machine, LLM) pair the profiling tests fit fresh.
type profileCase struct {
	name string
	spec gpu.Spec
	tp   int
	arch model.Arch
}

var profileCases = []profileCase{
	{"A100x1-Llama8B", gpu.A100(), 1, model.Llama8B()},
	{"A100x8-Llama70B", gpu.A100(), 8, model.Llama70B()},
	{"H100x2-Llama8B", gpu.H100(), 2, model.Llama8B()},
}

// fittedProfileDigests pins every number offline profiling fits, per
// profileCase: a change to the profiling simulations that moves any
// latency plane or guard factor by one bit changes its digest.
var fittedProfileDigests = map[string]string{
	"A100x1-Llama8B":  "a60e549576cfcf43bd95838a925e5cf9bff80a84d0711946a05ab6d4665bf1f0",
	"A100x8-Llama70B": "b5fc618eb0ed59b31568c4363b6d23ccbe160b08d0e21ef45936ce0b806055b6",
	"H100x2-Llama8B":  "aac6b16bb8429f5dbf120d5ec7dce6076d7cfc76fe537052714c777b069ceb48",
}

// hashFloats writes a length-prefixed run of float bit patterns.
func hashFloats(h hash.Hash, fs []float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(fs)))
	h.Write(b[:])
	for _, f := range fs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

// profileDigest hashes the fitted latency planes of every SM count and
// the guard's cells and per-config fallbacks.
func profileDigest(e *Estimator) string {
	h := sha256.New()
	for _, tab := range [][]planes{e.decodeTheta, e.prefillTheta} {
		for _, p := range tab {
			hashFloats(h, p.mem)
			hashFloats(h, p.comp)
		}
	}
	hashFloats(h, e.guard.flat)
	hashFloats(h, e.guard.cfgMax)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFittedProfileDigest profiles each pair fresh, past profileCache,
// and compares the digest of everything it fitted.
func TestFittedProfileDigest(t *testing.T) {
	for _, c := range profileCases {
		t.Run(c.name, func(t *testing.T) {
			got := profileDigest(profile(c.spec, c.tp, c.arch))
			if want := fittedProfileDigests[c.name]; got != want {
				t.Errorf("fitted profile digest = %s, want %s", got, want)
			}
		})
	}
}

// fullPhaseCoRun is the co-run measureDecodeCoRun shortens: it launches
// every layer of the prefill phase and runs the device until it drains.
func fullPhaseCoRun(spec gpu.Spec, tp int, arch model.Arch, decSM, preSM, bs, ctxPerReq, pNew, pReused int) float64 {
	s := sim.New()
	d := gpu.NewDevice(s, spec, tp, "co-profile")
	dec := d.Partition(decSM, "decode")
	pre := d.Partition(preSM, "prefill")
	c := arch.DecodeIterTotals(bs*ctxPerReq, bs, tp)
	var done sim.Time
	dec.Launch(gpu.NewKernel("decode", gpu.Decode, c, spec.GraphLaunch), func() { done = s.Now() })
	layer := arch.PrefillLayer([]model.Seq{{New: pNew, Reused: pReused}}, tp, true)
	for i := 0; i < arch.Layers; i++ {
		pre.Launch(gpu.NewKernel("prefill-layer", gpu.Prefill, layer, spec.LayerLaunch), nil)
	}
	s.Run()
	return done.Seconds()
}

// The stopped, shortened co-run times the decode bit for bit as the full
// phase does, on every guard cell of two deployments and on Fig. 11's
// grid, and the cells exercise every layer count it tries.
func TestCoRunMatchesFullPhase(t *testing.T) {
	for _, c := range profileCases[:2] {
		t.Run(c.name, func(t *testing.T) {
			launched := map[int]int{}
			for _, decSM := range c.spec.PartitionSizes() {
				preSM := c.spec.SMs - decSM
				for pi, pNew := range bucketTokens {
					for pj, pReused := range bucketTokens {
						if pi == 3 && pj == 3 {
							continue
						}
						for _, bs := range bucketBS {
							for _, dCtx := range bucketTokens {
								got, k := measureDecodeCoRun(c.spec, c.tp, c.arch, decSM, preSM, bs, dCtx, pNew, pReused)
								launched[k]++
								if want := fullPhaseCoRun(c.spec, c.tp, c.arch, decSM, preSM, bs, dCtx, pNew, pReused); got != want {
									t.Fatalf("decSM %d bs %d ctx %d prefill %d+%d: co-run %v after %d layers, full phase %v",
										decSM, bs, dCtx, pNew, pReused, got, k, want)
								}
							}
						}
					}
				}
			}
			t.Logf("cells by layers launched: %v", launched)
			for k := 4; ; k = min(4*k, c.arch.Layers) {
				if launched[k] == 0 {
					t.Errorf("no cell kept the run of %d layers: %v", k, launched)
				}
				if k == c.arch.Layers {
					break
				}
			}
		})
	}

	// Fig. 11: four deployments at TP 8, every partition split.
	t.Run("Fig11", func(t *testing.T) {
		for _, c := range []struct {
			spec gpu.Spec
			arch model.Arch
		}{
			{gpu.A100(), model.Llama8B()},
			{gpu.A100(), model.Llama70B()},
			{gpu.H100(), model.Llama8B()},
			{gpu.H100(), model.Llama70B()},
		} {
			for _, decSM := range c.spec.PartitionSizes() {
				for _, pc := range [][2]int{{1024, 0}, {8192, 8192}, {32768, 32768}, {2048, 126976}} {
					for _, dCtx := range []int{1024, 8192, 65536, 131072} {
						for _, bs := range []int{8, 64} {
							got := CoRunSlowdown(c.spec, 8, c.arch, decSM, bs, dCtx, pc[0], pc[1])
							co := fullPhaseCoRun(c.spec, 8, c.arch, decSM, c.spec.SMs-decSM, bs, dCtx, pc[0], pc[1])
							want := max(co/MeasureDecodeSolo(c.spec, 8, c.arch, decSM, bs, dCtx), 1)
							if got != want {
								t.Fatalf("%s %s decSM %d bs %d ctx %d prefill %v: slowdown %v, full phase %v",
									c.spec.Name, c.arch.Name, decSM, bs, dCtx, pc, got, want)
							}
						}
					}
				}
			}
		}
	})
}

// BenchmarkProfile measures one deployment's whole offline profiling
// pass, fitted fresh per op (profile bypasses profileCache).
func BenchmarkProfile(b *testing.B) {
	for _, c := range profileCases[:2] {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				profile(c.spec, c.tp, c.arch)
			}
		})
	}
}

package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"muxwise/internal/sim"
)

func newTestDevice(t *testing.T, tp int) (*sim.Sim, *Device) {
	t.Helper()
	s := sim.New()
	return s, NewDevice(s, A100(), tp, "test")
}

func TestPartitionSizes(t *testing.T) {
	a100, h100, h200 := A100(), H100(), H200()
	a := a100.PartitionSizes()
	wantA := []int{12, 28, 44, 60, 76, 92}
	if len(a) != len(wantA) {
		t.Fatalf("A100 partition sizes = %v, want %v", a, wantA)
	}
	for i := range a {
		if a[i] != wantA[i] {
			t.Fatalf("A100 partition sizes = %v, want %v", a, wantA)
		}
	}
	h := h100.PartitionSizes()
	wantH := []int{20, 36, 52, 68, 84, 100, 116}
	if len(h) != len(wantH) {
		t.Fatalf("H100 partition sizes = %v (%d configs), want %v (7 configs)", h, len(h), wantH)
	}
	for i := range h {
		if h[i] != wantH[i] {
			t.Fatalf("H100 partition sizes = %v, want %v", h, wantH)
		}
	}
	if got := h200.PartitionSizes(); len(got) != 7 {
		t.Fatalf("H200 should have 7 configs, got %v", got)
	}
}

func TestSpecByName(t *testing.T) {
	for _, name := range []string{"A100", "H100", "H200", "a100"} {
		if _, ok := SpecByName(name); !ok {
			t.Errorf("SpecByName(%q) not found", name)
		}
	}
	if _, ok := SpecByName("TPU"); ok {
		t.Error("SpecByName(TPU) unexpectedly found")
	}
}

// A compute-only kernel on the full device should take FLOPs/(peak·mfu·eff).
func TestComputeBoundDuration(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "full")
	// Large token count so the efficiency saturation factor ≈ 1.
	k := Kernel{Kind: Prefill, FLOPs: 312e12 * 0.5, Tokens: 1 << 20}
	var doneAt sim.Time
	p.LaunchFn(k, func(any) { doneAt = s.Now() }, nil)
	s.Run()
	eff := 0.5 * float64(1<<20) / (float64(1<<20) + 0.6*108)
	want := (312e12 * 0.5) / (312e12 * eff)
	got := doneAt.Seconds()
	if math.Abs(got-want)/want > 0.01 {
		t.Fatalf("compute-bound duration = %.4fs, want %.4fs", got, want)
	}
}

// A memory-only kernel on the full device takes Bytes/BW.
func TestMemoryBoundDuration(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "full")
	k := Kernel{Kind: Decode, Bytes: 2.039e12 / 2} // half a second of traffic
	var doneAt sim.Time
	p.LaunchFn(k, func(any) { doneAt = s.Now() }, nil)
	s.Run()
	if got := doneAt.Seconds(); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("memory-bound duration = %.4fs, want 0.5s", got)
	}
}

// An SM-starved memory-bound kernel cannot absorb full bandwidth: with
// 12/108 SMs and saturation fraction 0.45, achievable bandwidth is
// (12/108)/0.45 ≈ 24.7% of peak.
func TestSMLimitedBandwidth(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(12, "small")
	bytes := 2.039e12 * 0.1 // 100ms at full bandwidth
	var doneAt sim.Time
	p.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { doneAt = s.Now() }, nil)
	s.Run()
	frac := (12.0 / 108.0) / 0.45
	want := 0.1 / frac
	if got := doneAt.Seconds(); math.Abs(got-want)/want > 0.01 {
		t.Fatalf("starved bandwidth duration = %.4fs, want %.4fs", got, want)
	}
}

// Duration is the max of the compute and memory streams, not the sum.
func TestComputeMemoryOverlap(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "full")
	k := Kernel{
		Kind:   Prefill,
		FLOPs:  312e12 * 0.5 * 0.2, // ~0.2s compute at eff≈0.5
		Bytes:  2.039e12 * 0.05,    // 0.05s memory
		Tokens: 1 << 20,
	}
	var doneAt sim.Time
	p.LaunchFn(k, func(any) { doneAt = s.Now() }, nil)
	s.Run()
	if got := doneAt.Seconds(); math.Abs(got-0.2)/0.2 > 0.02 {
		t.Fatalf("overlapped duration = %.4fs, want ≈0.2s (max, not 0.25 sum)", got)
	}
}

// Two memory-hungry kernels on disjoint partitions share bandwidth and
// each slows down; the slowdown must be bounded by the demand ratio.
func TestBandwidthContention(t *testing.T) {
	s, d := newTestDevice(t, 1)
	a := d.Partition(54, "a")
	b := d.Partition(54, "b")
	bytes := 2.039e12 * 0.1
	var aAt, bAt sim.Time
	a.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { aAt = s.Now() }, nil)
	b.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { bAt = s.Now() }, nil)
	s.Run()
	// Each can absorb min(1, (0.5/0.45)) = full BW; contended share = half.
	// So each takes ≈0.2s instead of 0.1s.
	for _, at := range []sim.Time{aAt, bAt} {
		if got := at.Seconds(); math.Abs(got-0.2)/0.2 > 0.02 {
			t.Fatalf("contended durations a=%.4f b=%.4f, want ≈0.2s", aAt.Seconds(), bAt.Seconds())
		}
	}
}

// A compute-bound co-runner should barely slow a memory-bound kernel.
func TestComputeCoRunnerLowInterference(t *testing.T) {
	// Solo run.
	s1, d1 := newTestDevice(t, 1)
	p1 := d1.Partition(54, "dec")
	bytes := 2.039e12 * 0.05
	var solo sim.Time
	p1.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { solo = s1.Now() }, nil)
	s1.Run()

	// Co-run with a pure-compute kernel.
	s2, d2 := newTestDevice(t, 1)
	dec := d2.Partition(54, "dec")
	pre := d2.Partition(54, "pre")
	var co sim.Time
	dec.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { co = s2.Now() }, nil)
	pre.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e12, Tokens: 4096}, nil, nil)
	s2.Run()

	if co < solo {
		t.Fatalf("co-run %.4fs faster than solo %.4fs", co.Seconds(), solo.Seconds())
	}
	if slow := co.Seconds()/solo.Seconds() - 1; slow > 0.02 {
		t.Fatalf("pure-compute co-runner slowed decode by %.1f%%, want ≈0", slow*100)
	}
}

// SoloTime prices a kernel at the instant a fresh simulated device
// retires it, bit for bit: compute-, HBM- and interconnect-bound kernels,
// prefill and decode efficiency, with and without launch time, on every
// partition size, and a kernel with no work (1 ns after its launch, even
// on 0 SMs).
func TestSoloTimeMatchesDevice(t *testing.T) {
	kernels := []Kernel{
		{Kind: Prefill, FLOPs: 4e13, Bytes: 2e9, Tokens: 2048, Launch: 130 * sim.Microsecond},
		{Kind: Prefill, FLOPs: 3e11, Bytes: 8e9, Tokens: 16},
		{Kind: Decode, FLOPs: 1e11, Bytes: 3e10, CommBytes: 1e8, Launch: 500 * sim.Microsecond},
		{Kind: Decode, FLOPs: 1e9, Bytes: 1e8, CommBytes: 5e9},
		{Kind: Aux, Bytes: 7e6, MFU: 0.3},
		{Kind: Prefill, Launch: 20 * sim.Microsecond},
		{Kind: Decode},
	}
	for _, spec := range []Spec{A100(), H100()} {
		for _, tp := range []int{1, 8} {
			for _, sms := range append(spec.PartitionSizes(), 0, spec.SMs) {
				for i, k := range kernels {
					if sms == 0 && (k.FLOPs > 0 || k.Bytes > 0) {
						continue
					}
					s := sim.New()
					var want sim.Time
					NewDevice(s, spec, tp, "solo").Partition(sms, "p").LaunchFn(k, func(any) { want = s.Now() }, nil)
					s.Run()
					if got := SoloTime(spec, tp, sms, k); got != want {
						t.Fatalf("%s×%d on %d SMs, kernel %d: SoloTime %v, device retired it at %v", spec.Name, tp, sms, i, got, want)
					}
					if k.FLOPs == 0 && k.Bytes == 0 && k.CommBytes == 0 && want != k.Launch+1 {
						t.Fatalf("%s×%d on %d SMs: kernel %d with no work retired at %v, want launch + 1 ns", spec.Name, tp, sms, i, want)
					}
				}
			}
		}
	}
}

// FIFO order within one partition's stream.
func TestStreamFIFO(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "full")
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9}, func(any) { order = append(order, i) }, nil)
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("completion order %v, want FIFO", order)
		}
	}
}

// Host launches serialize: a long launch ahead of a short kernel delays it.
func TestHostLaunchSerialization(t *testing.T) {
	s, d := newTestDevice(t, 1)
	a := d.Partition(54, "a")
	b := d.Partition(54, "b")
	var bStart sim.Time
	// Kernel on a with a 10ms launch; kernel on b launched right after
	// with 0.5ms launch must wait for the host thread.
	a.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e9, Tokens: 100, Launch: 10 * sim.Millisecond}, nil, nil)
	b.LaunchFn(Kernel{Kind: Decode, Bytes: 1e6, Launch: 500 * sim.Microsecond}, func(any) { bStart = s.Now() }, nil)
	s.Run()
	if bStart < 10500*sim.Microsecond {
		t.Fatalf("kernel b done at %v, want ≥ 10.5ms (serialized launches)", bStart)
	}
}

// Oversubscribed partitions (WindServe-style plain streams) occupy SMs
// non-preemptively: the resident kernel keeps its SMs and runs at solo
// speed while the late arrival squeezes into the occupancy floor until
// the SMs free up — so the pair finishes in ~2× solo time overall, with
// the second kernel bearing nearly all the delay.
func TestOversubscriptionSerializes(t *testing.T) {
	s, d := newTestDevice(t, 1)
	a := d.Partition(108, "a")
	b := d.Partition(108, "b")
	flops := 312e12 * 0.5 * 0.1 // ~0.1s solo at eff≈0.5
	var aAt, bAt sim.Time
	a.LaunchFn(Kernel{Kind: Prefill, FLOPs: flops, Tokens: 1 << 20}, func(any) { aAt = s.Now() }, nil)
	b.LaunchFn(Kernel{Kind: Prefill, FLOPs: flops, Tokens: 1 << 20}, func(any) { bAt = s.Now() }, nil)
	s.Run()
	if got := aAt.Seconds(); math.Abs(got-0.1)/0.1 > 0.05 {
		t.Fatalf("resident kernel took %.4fs, want ≈ solo 0.1s", got)
	}
	if got := bAt.Seconds(); math.Abs(got-0.2)/0.2 > 0.08 {
		t.Fatalf("late kernel finished at %.4fs, want ≈0.2s (serialized)", got)
	}
}

// TP groups aggregate compute and bandwidth and pay a collective cost.
func TestTensorParallelAggregation(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 8, "tp8")
	p := d.Partition(108, "full")
	k := Kernel{Kind: Decode, Bytes: 8 * 2.039e12 * 0.01} // 10ms at aggregate BW
	var at sim.Time
	p.LaunchFn(k, func(any) { at = s.Now() }, nil)
	s.Run()
	if got := at.Seconds(); math.Abs(got-0.01)/0.01 > 0.02 {
		t.Fatalf("TP8 memory duration = %.4fs, want 0.01s", got)
	}

	// Comm-only kernel: bytes over NVLink at 600GB/s.
	s2 := sim.New()
	d2 := NewDevice(s2, A100(), 8, "tp8")
	p2 := d2.Partition(108, "full")
	var at2 sim.Time
	p2.LaunchFn(Kernel{Kind: Decode, CommBytes: 600e9 * 0.02}, func(any) { at2 = s2.Now() }, nil)
	s2.Run()
	if got := at2.Seconds(); math.Abs(got-0.02)/0.02 > 0.02 {
		t.Fatalf("comm duration = %.4fs, want 0.02s", got)
	}
}

func TestSetSMsAffectsNextKernel(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "p")
	bytes := 2.039e12 * 0.05
	var first, second sim.Time
	p.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) {
		first = s.Now()
		p.SetSMs(12)
		p.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { second = s.Now() }, nil)
	}, nil)
	s.Run()
	d1 := first.Seconds()
	d2 := (second - first).Seconds()
	if d2 < d1*3 {
		t.Fatalf("resized kernel took %.4fs vs %.4fs, want ≥3× slower on 12 SMs", d2, d1)
	}
	if p.Reconfigs() != 1 {
		t.Fatalf("Reconfigs = %d, want 1", p.Reconfigs())
	}
}

func TestDeviceStats(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "full")
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 2.039e12 * 0.1}, nil, nil)
	s.Run()
	st := d.Stats()
	if st.Kernels != 1 {
		t.Fatalf("Kernels = %d, want 1", st.Kernels)
	}
	if st.BWUtil < 0.95 {
		t.Fatalf("BWUtil = %.3f for a purely memory-bound run, want ≈1", st.BWUtil)
	}
	if st.SMUtil < 0.95 {
		t.Fatalf("SMUtil = %.3f, want ≈1", st.SMUtil)
	}
	if st.Util < 0.9 {
		t.Fatalf("Util = %.3f, want high", st.Util)
	}
}

func TestPartitionQueueAccounting(t *testing.T) {
	s, d := newTestDevice(t, 1)
	p := d.Partition(108, "p")
	if !p.Idle() {
		t.Fatal("fresh partition not idle")
	}
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9}, nil, nil)
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9}, nil, nil)
	if p.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2", p.QueueLen())
	}
	s.Run()
	if !p.Idle() || p.QueueLen() != 0 {
		t.Fatal("partition should drain to idle")
	}
}

// Property: co-running never speeds a kernel up, and contention slowdown
// stays bounded (the Fig. 11 premise: bounded worst case).
func TestPropertyContentionBounded(t *testing.T) {
	f := func(decSMraw, bytesRaw uint8) bool {
		spec := A100()
		sizes := spec.PartitionSizes()
		decSM := sizes[int(decSMraw)%len(sizes)]
		bytes := (float64(bytesRaw) + 1) * 1e8

		solo := runDecode(decSM, bytes, false)
		co := runDecode(decSM, bytes, true)
		if co < solo-1e-9 {
			return false
		}
		// Worst case bounded: co-runner can at most halve bandwidth when
		// demands tie; with the SM cap the slowdown stays below ~4×.
		return co <= solo*4+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func runDecode(decSM int, bytes float64, withPrefill bool) float64 {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "d")
	dec := d.Partition(decSM, "dec")
	var doneAt sim.Time
	dec.LaunchFn(Kernel{Kind: Decode, Bytes: bytes}, func(any) { doneAt = s.Now() }, nil)
	if withPrefill {
		pre := d.Partition(108-decSM, "pre")
		// A long prefill with both compute and memory traffic.
		pre.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e13, Bytes: 5e10, Tokens: 8192}, nil, nil)
	}
	s.Run()
	return doneAt.Seconds()
}

func BenchmarkDeviceContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sim.New()
		d := NewDevice(s, A100(), 8, "bench")
		dec := d.Partition(44, "dec")
		pre := d.Partition(64, "pre")
		for j := 0; j < 100; j++ {
			dec.LaunchFn(Kernel{Kind: Decode, Bytes: 1e11, Launch: 500 * sim.Microsecond}, nil, nil)
			pre.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e13, Bytes: 1e10, Tokens: 4096, Launch: 130 * sim.Microsecond}, nil, nil)
		}
		s.Run()
	}
}

// BenchmarkDeviceSerialLaunch launches kernels back to back on one
// partition, each from its predecessor's completion callback, the way the
// Chunked and Temporal engines run their iterations, and reports how many
// events the loop fires per kernel.
func BenchmarkDeviceSerialLaunch(b *testing.B) {
	const kernels = 200
	iter := Kernel{Kind: Decode, FLOPs: 1e11, Bytes: 3e10, CommBytes: 1e7, Launch: 40 * sim.Microsecond}
	var events, launched int64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		d := NewDevice(s, A100(), 2, "bench")
		p := d.Partition(108, "all")
		left := kernels
		var step func(any)
		step = func(any) {
			if left > 0 {
				left--
				p.LaunchFn(iter, step, nil)
			}
		}
		step(nil)
		s.Run()
		events += s.Stats().Fired
		launched += d.Stats().Kernels
	}
	b.ReportMetric(float64(events)/float64(launched), "events/kernel")
}

// BenchmarkDeviceLayerPipeline runs a layer-wise prefill beside
// back-to-back decode iterations at TP=2, the MuxWise engine's steady
// state, and reports how many events the loop fires per kernel.
func BenchmarkDeviceLayerPipeline(b *testing.B) {
	const layers = 80
	layer := Kernel{Kind: Prefill, FLOPs: 2e12, Bytes: 2e9, CommBytes: 6e7, Tokens: 4096, Launch: 15 * sim.Microsecond}
	iter := Kernel{Kind: Decode, FLOPs: 1e11, Bytes: 3e10, CommBytes: 1e7, Launch: 40 * sim.Microsecond}
	var events, kernels int64
	for i := 0; i < b.N; i++ {
		s := sim.New()
		d := NewDevice(s, A100(), 2, "bench")
		dec := d.Partition(44, "dec")
		pre := d.Partition(64, "pre")
		for range layers {
			pre.LaunchFn(layer, nil, nil)
		}
		var step func(any)
		step = func(any) {
			if !pre.Idle() {
				dec.LaunchFn(iter, step, nil)
			}
		}
		step(nil)
		s.Run()
		events += s.Stats().Fired
		kernels += d.Stats().Kernels
	}
	b.ReportMetric(float64(events)/float64(kernels), "events/kernel")
}

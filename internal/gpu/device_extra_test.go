package gpu

import (
	"math"
	"strings"
	"testing"

	"muxwise/internal/sim"
)

// The prefill efficiency curve is the physical basis of the Fig. 6a
// saturation knee: doubling tokens at fixed SMs must raise achieved
// FLOP/s, saturating towards MFUPrefill.
func TestEfficiencySaturation(t *testing.T) {
	throughput := func(tokens int) float64 {
		s := sim.New()
		d := NewDevice(s, A100(), 8, "eff")
		p := d.Partition(108, "x")
		flops := float64(tokens) * 1e10
		var done sim.Time
		p.Launch(Kernel{Kind: Prefill, FLOPs: flops, Tokens: tokens}, func() { done = s.Now() })
		s.Run()
		return flops / done.Seconds()
	}
	t256 := throughput(256)
	t1k := throughput(1024)
	t8k := throughput(8192)
	if !(t256 < t1k && t1k < t8k) {
		t.Fatalf("throughput not saturating: %.3g, %.3g, %.3g", t256, t1k, t8k)
	}
	peak := 8 * 312e12 * 0.5
	if t8k > peak {
		t.Fatalf("throughput %.3g exceeds MFU-capped peak %.3g", t8k, peak)
	}
	if t8k < peak*0.55 {
		t.Fatalf("8K tokens should approach saturation: %.3g vs peak %.3g", t8k, peak)
	}
}

func TestHostBacklog(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "host")
	p := d.Partition(108, "x")
	if d.HostBacklog() != 0 {
		t.Fatal("fresh device has backlog")
	}
	for i := 0; i < 5; i++ {
		p.Launch(Kernel{Kind: Decode, Bytes: 1e9, Launch: 2 * sim.Millisecond}, nil)
	}
	if got := d.HostBacklog(); got != 10*sim.Millisecond {
		t.Fatalf("backlog = %v, want 10ms", got)
	}
	s.Run()
	if d.HostBacklog() != 0 {
		t.Fatal("backlog should drain")
	}
}

func TestLaunchSecondsAccounting(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "acct")
	p := d.Partition(108, "x")
	p.Launch(Kernel{Kind: Decode, Bytes: 1e9, Launch: 3 * sim.Millisecond}, nil)
	p.Launch(Kernel{Kind: Decode, Bytes: 1e9, Launch: 2 * sim.Millisecond}, nil)
	s.Run()
	st := d.Stats()
	if math.Abs(st.LaunchSeconds-0.005) > 1e-9 {
		t.Fatalf("LaunchSeconds = %v, want 0.005", st.LaunchSeconds)
	}
	if st.Kernels != 2 {
		t.Fatalf("Kernels = %d", st.Kernels)
	}
}

func TestPartitionBusyAccounting(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "busy")
	p := d.Partition(108, "x")
	p.Launch(Kernel{Kind: Decode, Bytes: 2.039e12 * 0.1}, nil) // 100ms
	s.Run()
	if got := p.Busy(); math.Abs(got-0.1) > 0.002 {
		t.Fatalf("Busy = %v, want ≈0.1s", got)
	}
}

// Zero-work kernels must complete immediately without wedging the device.
func TestZeroWorkKernel(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "zero")
	p := d.Partition(108, "x")
	done := false
	p.Launch(Kernel{Kind: Aux}, func() { done = true })
	p.Launch(Kernel{Kind: Decode, Bytes: 1e9}, nil)
	s.Run()
	if !done {
		t.Fatal("zero-work kernel never completed")
	}
	if !p.Idle() {
		t.Fatal("device wedged after zero-work kernel")
	}
}

// A three-way co-run: bandwidth allocation respects every kernel's SM cap
// and the total never exceeds device bandwidth.
func TestThreeWayContention(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "three")
	sizes := []int{12, 44, 52}
	var finish [3]sim.Time
	for i, sm := range sizes {
		i := i
		p := d.Partition(sm, "p")
		p.Launch(Kernel{Kind: Decode, Bytes: 2.039e12 * 0.05}, func() { finish[i] = s.Now() })
	}
	s.Run()
	// The smallest partition has the lowest bandwidth cap → finishes last.
	if !(finish[0] > finish[1] && finish[0] > finish[2]) {
		t.Fatalf("SM-starved kernel should finish last: %v", finish)
	}
}

func TestKindString(t *testing.T) {
	if Prefill.String() != "prefill" || Decode.String() != "decode" || Aux.String() != "aux" {
		t.Fatal("Kind strings wrong")
	}
}

func TestNewDevicePanicsOnBadTP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for tp=0")
		}
	}()
	NewDevice(sim.New(), A100(), 0, "bad")
}

func TestPartitionPanicsOutOfRange(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "bad")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for oversize partition")
		}
	}()
	d.Partition(109, "too-big")
}

// Regression: work started on a 0-SM partition can never progress. It
// used to book a completion check 1 ns ahead forever, so the loop spun
// and done never ran; starting it now panics, naming the partition.
// Zero-work kernels still complete on 0 SMs.
func TestZeroSMPartitionWorkPanics(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "zero-sm")
	p := d.Partition(0, "p")
	zeroDone := false
	p.Launch(Kernel{Kind: Aux}, func() { zeroDone = true })
	s.Run()
	if !zeroDone {
		t.Fatal("zero-work kernel on 0 SMs never completed")
	}
	done := false
	p.Launch(Kernel{Kind: Prefill, FLOPs: 1e12, Bytes: 1e9, Tokens: 100}, func() { done = true })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"p"`) {
			t.Fatalf("want a panic naming partition \"p\", got %q (done %v, %d events fired)", msg, done, s.Fired())
		}
	}()
	s.RunUntil(10 * sim.Microsecond)
}

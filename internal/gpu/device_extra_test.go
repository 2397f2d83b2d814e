package gpu

import (
	"math"
	"slices"
	"strings"
	"testing"

	"muxwise/internal/model"
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
		p.LaunchFn(Kernel{Kind: Prefill, FLOPs: flops, Tokens: tokens}, func(any) { done = s.Now() }, nil)
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
		p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9, Launch: 2 * sim.Millisecond}, nil, nil)
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
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9, Launch: 3 * sim.Millisecond}, nil, nil)
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9, Launch: 2 * sim.Millisecond}, nil, nil)
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
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 2.039e12 * 0.1}, nil, nil) // 100ms
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
	p.LaunchFn(Kernel{Kind: Aux}, func(any) { done = true }, nil)
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9}, nil, nil)
	s.Run()
	if !done {
		t.Fatal("zero-work kernel never completed")
	}
	if !p.Idle() {
		t.Fatal("device wedged after zero-work kernel")
	}
}

// A lone kernel whose compute, HBM and interconnect sub-streams drain at
// three different times fires one event, its retirement, and retires at
// ready + ⌈slowest sub-stream time⌉. It heads an idle device, so its start
// at the ready instant changes no other rate and needs no event; nor do
// the two earlier drains.
func TestSubStreamDrainsFireNoEvent(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 2, "lone")
	p := d.Partition(108, "full")
	k := Kernel{Kind: Decode, FLOPs: 1e11, Bytes: 4e9, CommBytes: 1e9, Launch: 10 * sim.Microsecond}
	compute := k.FLOPs / (d.TotalFLOPS() * d.Spec.efficiency(k, 1, d.TP))
	hbm := k.Bytes / d.Spec.BandwidthCap(1, d.TotalBandwidth())
	comm := k.CommBytes / d.Spec.NVLinkBandwidth
	if compute == hbm || hbm == comm || compute == comm {
		t.Fatalf("sub-stream times %v, %v, %v must differ", compute, hbm, comm)
	}
	var doneAt sim.Time
	p.LaunchFn(k, func(any) { doneAt = s.Now() }, nil)
	s.Run()
	if want := k.Launch + sim.FromSeconds(max(compute, hbm, comm)); doneAt != want {
		t.Fatalf("kernel retired at %v, want %v", doneAt, want)
	}
	if got := s.Stats().Fired; got != 1 {
		t.Fatalf("%d events fired, want 1 (retirement)", got)
	}
}

// Regression: a kernel whose drain time saturates FromSeconds keys no
// timer. The deadline used to be now + MaxTime, which wraps negative, so
// the timer was re-keyed 1 ns ahead on every firing and the kernel never
// retired.
func TestUnboundedKernelKeysNoTimer(t *testing.T) {
	s := sim.New()
	p := NewDevice(s, A100(), 1, "huge").Partition(108, "p")
	s.RunUntil(sim.Second)
	p.LaunchFn(Kernel{Kind: Decode, FLOPs: 1e30}, nil, nil)
	for _, until := range []sim.Time{sim.Second + sim.Millisecond, 2 * sim.Second} {
		s.RunUntil(until)
		if got := s.Stats().Fired; got > 4 {
			t.Fatalf("%d events fired by %v, want at most 4", got, until)
		}
	}
	if p.Idle() {
		t.Fatal("a kernel with 1e30 FLOPs retired within a second")
	}
}

// A kernel launched while another partition runs fires its launch-ready
// event: its start changes the running kernel's rates.
func TestLaunchBesideRunningKernelFiresReady(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "busy")
	long := d.Partition(54, "long")
	other := d.Partition(54, "other")
	long.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e13, Tokens: 4096}, nil, nil)
	s.RunUntil(10 * sim.Microsecond)
	const launch = 5 * sim.Microsecond
	var doneAt sim.Time
	other.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9, Launch: launch}, func(any) { doneAt = s.Now() }, nil)
	fired := s.Stats().Fired
	s.RunUntil(s.Now() + launch)
	if got := s.Stats().Fired - fired; got != 1 {
		t.Fatalf("%d events fired by the ready instant, want 1 (launch-ready)", got)
	}
	if other.QueueLen() != 1 || long.QueueLen() != 1 {
		t.Fatalf("queue lengths %d, %d at the ready instant, want 1, 1", long.QueueLen(), other.QueueLen())
	}
	s.Run()
	if doneAt == 0 {
		t.Fatal("the second kernel never completed")
	}
}

// An event keyed inside a kernel's launch window at the kernel's exact
// completion instant dispatches before the completion callback, as if the
// completion timer had been keyed at the ready instant; one keyed before
// the launch dispatches first, and one keyed after the ready instant
// last. Keying the timer at submit would put the kernel ahead of the
// launch-window event.
func TestDeferredStartKeepsTieOrder(t *testing.T) {
	const launch = 10 * sim.Microsecond
	k := Kernel{Kind: Decode, Bytes: 1e9, Launch: launch}
	ref := sim.New()
	var doneAt sim.Time
	NewDevice(ref, A100(), 1, "ref").Partition(108, "p").LaunchFn(k, func(any) { doneAt = ref.Now() }, nil)
	ref.Run()

	s := sim.New()
	p := NewDevice(s, A100(), 1, "tie").Partition(108, "p")
	var order []string
	mark := func(label any) { order = append(order, label.(string)) }
	s.AtFunc(doneAt, mark, "before launch")
	p.LaunchFn(k, mark, "kernel")
	s.AtFunc(launch/2, func(any) { s.AtFunc(doneAt, mark, "launch window") }, nil)
	s.AtFunc(launch+1, func(any) { s.AtFunc(doneAt, mark, "after ready") }, nil)
	s.Run()
	want := []string{"before launch", "launch window", "kernel", "after ready"}
	if !slices.Equal(order, want) {
		t.Fatalf("dispatch order at %v: %q, want %q", doneAt, order, want)
	}
}

// A zero-work kernel beside a long-running kernel on another partition
// retires 1 ns after it starts, not at the long kernel's next drain.
func TestZeroWorkKernelBesideLongKernel(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "zero")
	long := d.Partition(54, "long")
	zero := d.Partition(54, "zero")
	var longAt, zeroAt sim.Time
	long.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e13, Tokens: 4096}, func(any) { longAt = s.Now() }, nil)
	zero.LaunchFn(Kernel{Kind: Aux, Launch: 5 * sim.Microsecond}, func(any) { zeroAt = s.Now() }, nil)
	s.Run()
	if want := 5*sim.Microsecond + 1; zeroAt != want {
		t.Fatalf("zero-work kernel retired at %v, want %v (the long kernel retired at %v)", zeroAt, want, longAt)
	}
}

// A device holds at most two partitions: a third call panics, naming the
// partition and the device, and leaves the first two working.
func TestThirdPartitionPanics(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "pair")
	p, q := d.Partition(54, "p"), d.Partition(54, "q")
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, `"third"`) || !strings.Contains(msg, `"pair"`) {
				t.Fatalf("want a panic naming partition \"third\" and device \"pair\", got %q", msg)
			}
		}()
		d.Partition(0, "third")
	}()
	done := 0
	for _, part := range []*Partition{p, q} {
		part.LaunchFn(Kernel{Kind: Decode, Bytes: 1e9}, func(any) { done++ }, nil)
	}
	s.Run()
	if done != 2 {
		t.Fatalf("%d of 2 kernels completed after the refused partition", done)
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
	p.LaunchFn(Kernel{Kind: Aux}, func(any) { zeroDone = true }, nil)
	s.Run()
	if !zeroDone {
		t.Fatal("zero-work kernel on 0 SMs never completed")
	}
	done := false
	p.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e12, Bytes: 1e9, Tokens: 100}, func(any) { done = true }, nil)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"p"`) {
			t.Fatalf("want a panic naming partition \"p\", got %q (done %v, %d events fired)", msg, done, s.Stats().Fired)
		}
	}()
	s.RunUntil(10 * sim.Microsecond)
}

// A chain of kernels queued on one partition, beside a long kernel on a
// second one, starts each successor inside its predecessor's retirement
// event. There the waterfill runs once and the completion timer is keyed
// once, so no retirement re-keys it, and every link completes when the
// FIFO reference says: at max(its host launch ready, its predecessor's
// retirement) plus its solo duration.
func TestQueuedSuccessorKeysTimerOnce(t *testing.T) {
	const links = 6
	const launch = 5 * sim.Microsecond
	link := Kernel{Kind: Decode, Bytes: 2.039e12 * 0.01, Launch: launch}

	s0 := sim.New()
	solo := link
	solo.Launch = 0
	var dur sim.Time
	NewDevice(s0, A100(), 1, "solo").Partition(54, "chain").LaunchFn(solo, func(any) { dur = s0.Now() }, nil)
	s0.Run()

	s := sim.New()
	d := NewDevice(s, A100(), 1, "chain")
	long := d.Partition(54, "long")
	chain := d.Partition(54, "chain")
	var longAt sim.Time
	long.LaunchFn(Kernel{Kind: Prefill, FLOPs: 1e14, Tokens: 4096, Launch: launch}, func(any) { longAt = s.Now() }, nil)
	var at []sim.Time
	for range links {
		chain.LaunchFn(link, func(any) { at = append(at, s.Now()) }, nil)
	}
	// Every launch is ready, and both partitions are running, well before
	// the chain's head retires.
	s.RunUntil((links + 1) * launch)
	if chain.QueueLen() != links || long.QueueLen() != 1 {
		t.Fatalf("queue lengths %d, %d before the first retirement, want %d, 1", chain.QueueLen(), long.QueueLen(), links)
	}
	canceled := s.Stats().Canceled
	s.Run()
	if got := s.Stats().Canceled; got != canceled {
		t.Fatalf("%d timer re-keys at the chain's retirements, want 0", got-canceled)
	}
	if len(at) != links {
		t.Fatalf("%d of %d links completed", len(at), links)
	}
	var prev sim.Time
	for i, got := range at {
		ready := sim.Time(i+2) * launch // behind the long kernel's launch
		want := max(ready, prev) + dur
		if got != want {
			t.Fatalf("link %d completed at %v, want %v (FIFO reference)", i, got, want)
		}
		prev = want
	}
	if longAt <= prev {
		t.Fatalf("long kernel retired at %v, before the chain's end at %v", longAt, prev)
	}
}

// Relaunch resubmits only the kernel whose completion callback is running,
// and only on its own partition; anywhere else it panics, naming p.
func TestRelaunchOutsideItsCallbackPanics(t *testing.T) {
	s := sim.New()
	d := NewDevice(s, A100(), 1, "relaunch")
	p, q := d.Partition(54, "p"), d.Partition(54, "q")
	relaunchPanics := func(part *Partition) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		part.Relaunch(model.Cost{Bytes: 1e6}, 0)
		return ""
	}
	if msg := relaunchPanics(p); !strings.Contains(msg, `"p"`) {
		t.Fatalf("Relaunch outside a callback: panic %q, want one naming \"p\"", msg)
	}
	var msg string
	p.LaunchFn(Kernel{Kind: Decode, Bytes: 1e6}, func(any) { msg = relaunchPanics(q) }, nil)
	s.Run()
	if !strings.Contains(msg, `"q"`) {
		t.Fatalf("Relaunch on another partition: panic %q, want one naming \"q\"", msg)
	}
}

package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand/v2"
	"testing"

	"muxwise/internal/sim"
)

// deviceProgram interprets a byte string as a device program: a TP
// degree, one to four partitions (disjoint or oversubscribed), then
// launches, resizes, clock advances and mid-run Stats reads. Launches
// vary kind, size, interconnect traffic and launch latency, include
// zero-work kernels, and may launch a follow-up from their completion
// callback. Every completion is recorded, so the same program can be
// checked for invariants and hashed into a timeline digest.
type deviceProgram struct {
	t    testing.TB
	data []byte
	pos  int

	s     *sim.Sim
	d     *Device
	parts []*Partition

	kernels  []progKernel
	launched [][]int // kernel ids per partition, in launch order
	done     [][]int // kernel ids per partition, in completion order
	order    []int   // kernel ids in completion order
	complete func(any)
}

type progKernel struct {
	part    int
	readyAt sim.Time // host-launch-ready time
	at      sim.Time // completion time
	count   int      // completions seen
	follow  int      // follow-up launches still to make from the callback
	k       Kernel
}

// next returns the next program byte, or 0 once the program is spent.
func (p *deviceProgram) next() int {
	if p.pos >= len(p.data) {
		return 0
	}
	p.pos++
	return int(p.data[p.pos-1])
}

func runDeviceProgram(t testing.TB, data []byte) *deviceProgram {
	p := &deviceProgram{t: t, data: data, s: sim.New()}
	p.complete = func(arg any) { p.onComplete(arg.(int)) }
	cfg := p.next()
	spec := A100()
	if cfg&0x40 != 0 {
		spec = H100()
	}
	tp := []int{1, 2, 8}[cfg%3]
	n := 1 + (cfg/3)%4
	oversub := cfg&0x80 != 0
	p.d = NewDevice(p.s, spec, tp, "fuzz")
	for i := range n {
		sms := 1 + p.next()%(spec.SMs/n)
		if oversub {
			sms = spec.SMs/2 + p.next()%(spec.SMs-spec.SMs/2+1)
		}
		p.parts = append(p.parts, p.d.Partition(sms, string(rune('a'+i))))
	}
	p.launched = make([][]int, n)
	p.done = make([][]int, n)

	const maxOps = 64
	for op := 0; op < maxOps && p.pos < len(p.data); op++ {
		b0, b1, b2 := p.next(), p.next(), p.next()
		part := (b0 / 8) % n
		switch b0 % 8 {
		case 0, 1, 2:
			p.launch(part, p.kernel(b1, b2), 0)
		case 3:
			p.launch(part, p.kernel(b1, b2), 1+b2%2)
		case 4:
			p.parts[part].SetSMs(1 + (b1<<8|b2)%spec.SMs)
		case 5:
			p.s.RunUntil(p.s.Now() + sim.Time(b1<<8|b2)*sim.Microsecond/16)
		case 6:
			p.launch(part, Kernel{Label: "zero", Kind: Kind(b1 % 3), Launch: sim.Time(b2%4) * 5 * sim.Microsecond}, b2%2)
		case 7:
			p.checkStats()
		}
	}
	p.s.Run()
	p.checkStats()
	return p
}

// kernel derives a kernel from two program bytes: compute-only,
// memory-only or mixed, with TP collectives when the group has more
// than one GPU.
func (p *deviceProgram) kernel(b1, b2 int) Kernel {
	k := Kernel{
		Kind:   Kind(b1 % 3),
		FLOPs:  math.Pow(10, float64(9+(b1/3)%5)) * float64(1+b2%7),
		Bytes:  math.Pow(10, float64(6+(b2/7)%5)) * float64(1+b1%5),
		Tokens: 1 << (b2 % 14),
		Launch: sim.Time(b1%4) * 5 * sim.Microsecond,
	}
	switch b2 % 5 {
	case 0:
		k.FLOPs = 0
	case 1:
		k.Bytes = 0
	}
	if p.d.TP > 1 && b1&0x80 != 0 {
		k.CommBytes = 1e7 * float64(1+b2%5)
	}
	return k
}

func (p *deviceProgram) launch(part int, k Kernel, follow int) {
	id := len(p.kernels)
	p.parts[part].LaunchFn(k, p.complete, id)
	p.kernels = append(p.kernels, progKernel{
		part: part, readyAt: p.s.Now() + p.d.HostBacklog(), follow: follow, k: k,
	})
	p.launched[part] = append(p.launched[part], id)
}

func (p *deviceProgram) onComplete(id int) {
	pk := &p.kernels[id]
	pk.count++
	pk.at = p.s.Now()
	p.done[pk.part] = append(p.done[pk.part], id)
	p.order = append(p.order, id)
	if pk.follow > 0 {
		// A follow-up on the next partition, launched from the callback,
		// with one fewer follow-up of its own.
		k, part, follow := pk.k, (pk.part+1)%len(p.parts), pk.follow-1
		k.FLOPs /= 2
		k.Tokens = max(1, k.Tokens/2)
		p.launch(part, k, follow)
	}
}

// checkStats fails unless every utilization lies in [0, 1].
func (p *deviceProgram) checkStats() {
	p.t.Helper()
	st := p.d.Stats()
	const eps = 1e-9
	for _, u := range []float64{st.SMUtil, st.ComputeUtil, st.BWUtil, st.Util} {
		if u < 0 || u > 1+eps || math.IsNaN(u) {
			p.t.Fatalf("utilization outside [0, 1] at %v: %+v", p.s.Now(), st)
		}
	}
}

// check verifies the program's invariants after it ran to completion:
// every kernel completes exactly once, in FIFO order on its partition,
// and never before its host launch was ready.
func (p *deviceProgram) check() {
	p.t.Helper()
	for id, pk := range p.kernels {
		if pk.count != 1 {
			p.t.Fatalf("kernel %d completed %d times", id, pk.count)
		}
		if pk.at < pk.readyAt {
			p.t.Fatalf("kernel %d completed at %v, before its launch was ready at %v", id, pk.at, pk.readyAt)
		}
	}
	for i := range p.parts {
		if len(p.done[i]) != len(p.launched[i]) {
			p.t.Fatalf("partition %d: %d kernels launched, %d completed", i, len(p.launched[i]), len(p.done[i]))
		}
		for j, id := range p.done[i] {
			if id != p.launched[i][j] {
				p.t.Fatalf("partition %d: completion %d is kernel %d, launch order has %d", i, j, id, p.launched[i][j])
			}
		}
	}
}

// hash writes the program's timeline: every completion in order with its
// time, each partition's busy seconds and the final device Stats.
func (p *deviceProgram) hash(h hash.Hash) {
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, id := range p.order {
		put(uint64(id))
		put(uint64(p.kernels[id].at))
	}
	for _, part := range p.parts {
		put(math.Float64bits(part.Busy()))
	}
	st := p.d.Stats()
	put(uint64(st.Kernels))
	for _, v := range []float64{st.SMUtil, st.ComputeUtil, st.BWUtil, st.Util, st.ActiveSeconds, st.LaunchSeconds} {
		put(math.Float64bits(v))
	}
}

// deviceTimelineDigest pins the simulated device byte for byte: any
// change to when a kernel starts or completes, to the fluid rates or to
// the accounting integrals moves it.
const deviceTimelineDigest = "aafb97d2e3088bf1d8894371410324c468ce715c5d79b94479151ef37cf3c748"

// The device timeline over 1000 seeded random programs matches the
// committed digest, and every program satisfies the invariants.
func TestDeviceTimelineDigest(t *testing.T) {
	h := sha256.New()
	completions := 0
	for seed := range uint64(1000) {
		rng := rand.New(rand.NewPCG(seed, 0xde71ce))
		data := make([]byte, 1+4+3*(8+rng.IntN(56)))
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		p := runDeviceProgram(t, data)
		p.check()
		p.hash(h)
		completions += len(p.order)
	}
	if completions < 10000 {
		t.Fatalf("only %d completions over 1000 programs", completions)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != deviceTimelineDigest {
		t.Fatalf("device timeline digest = %s, want %s", got, deviceTimelineDigest)
	}
}

// FuzzDeviceOps checks the device invariants on arbitrary programs: every
// kernel completes exactly once, in FIFO order per partition, never
// before its host launch is ready, with utilizations in [0, 1].
func FuzzDeviceOps(f *testing.F) {
	f.Add([]byte{0x00, 50, 0, 1, 2, 5, 0, 40})
	f.Add([]byte{0x89, 200, 200, 200, 3, 0x83, 11, 11, 0x83, 12, 4, 60, 1, 5, 0, 100, 6, 0, 1})
	f.Add([]byte{0xcb, 1, 2, 3, 4, 0x0b, 0x81, 3, 0x13, 0x82, 8, 0x1c, 0, 9, 7, 0, 0, 5, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		runDeviceProgram(t, data).check()
	})
}

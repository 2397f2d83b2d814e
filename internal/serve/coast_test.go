package serve

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"muxwise/internal/gpu"
	"muxwise/internal/metrics"
	"muxwise/internal/model"
	"muxwise/internal/sim"
	"muxwise/internal/workload"
)

// chainEngine is the smallest engine around a DecodeStream: its handler
// replaces every finished request with a new arrival and relaunches the
// batch on the same partition while iterations remain, and its quiet
// predicate coasts when coast is set.
type chainEngine struct {
	env    *Env
	part   *gpu.Partition
	decode DecodeStream
	coast  bool
	left   int // iterations still to launch
	nextID int
}

// admit brings a request of output tokens into the batch as a new
// arrival that emits its first token now.
func (e *chainEngine) admit(r *Running, output int) {
	now := e.env.Sim.Now()
	r.R.ID, r.R.OutputTokens, r.Generated = e.nextID, output, 0
	e.nextID++
	e.env.Rec.Arrive(r.R.ID, now, r.R.InputTokens)
	FirstToken(e.env.Rec, r, now)
	e.decode.Add(r)
}

func chainDone(arg any, finished []*Running) {
	e := arg.(*chainEngine)
	for _, r := range finished {
		e.admit(r, e.decode.Size()*coastSpacing)
	}
	if e.left > 0 {
		e.left--
		e.decode.Launch(e.part, e.env.GPUs, 0)
	}
}

func chainQuiet(arg any) bool {
	e := arg.(*chainEngine)
	if !e.coast || e.left == 0 {
		return false
	}
	e.left--
	return true
}

// coastSpacing is how many iterations apart BenchmarkDecodeCoast's
// requests finish.
const coastSpacing = 1024

// BenchmarkDecodeCoast chains decode iterations of Llama-70B on eight
// A100s at batch 25 and 256, each iteration alone on the device, through
// a stream that coasts (the stream relaunches) or hands every boundary
// to its engine's handler (which relaunches with Launch). One request
// finishes every coastSpacing iterations and is replaced at once, so
// nearly every boundary is quiet. ns/op and allocs/op are per iteration,
// recorder included.
func BenchmarkDecodeCoast(b *testing.B) {
	for _, batch := range []int{25, 256} {
		for _, coast := range []bool{true, false} {
			b.Run(fmt.Sprintf("batch=%d/coast=%v", batch, coast), func(b *testing.B) {
				s := sim.New()
				env := &Env{
					Config: Config{Spec: gpu.A100(), GPUs: 8, Arch: model.Llama70B()},
					Sim:    s, Rec: metrics.NewRecorder(),
				}
				e := &chainEngine{env: env, coast: coast, left: b.N - 1}
				e.part = gpu.NewDevice(s, env.Spec, env.GPUs, "decode").Partition(env.Spec.SMs, "decode")
				e.decode.Bind(env, chainDone, chainQuiet, e)
				for i := range batch {
					e.admit(&Running{R: &workload.Request{InputTokens: 1000}}, (i+1)*coastSpacing)
				}
				b.ReportAllocs()
				b.ResetTimer()
				e.decode.Launch(e.part, env.GPUs, 0)
				s.Run()
				if st := s.Stats(); st.Fired+st.Folded != int64(b.N) {
					b.Fatalf("fired %d and folded %d events, want one per iteration (%d)", st.Fired, st.Folded, b.N)
				}
			})
		}
	}
}

// coastProgram is one FuzzDecodeCoast run: a decode batch on a device
// with a second, foreign partition, a quiet predicate drawn per boundary,
// and foreign events at instants taken from the boundaries of a plain
// run of the same batch.
type coastProgram struct {
	env       *Env
	dev       *gpu.Device
	part      *gpu.Partition
	side      *gpu.Partition
	decode    DecodeStream
	tp        int
	surcharge float64

	coast  bool
	quiet  []byte // drawn one bit per predicate call
	draws  int
	spares []*Running // join, one per finished request at handler boundaries or one per foreign join
	bounds []sim.Time // handler boundaries seen
}

func coastProgDone(arg any, finished []*Running) {
	p := arg.(*coastProgram)
	p.bounds = append(p.bounds, p.env.Sim.Now())
	for range finished {
		if len(p.spares) > 0 {
			p.decode.Add(p.spares[0])
			p.spares = p.spares[1:]
		}
	}
	if p.decode.Size() > 0 {
		p.decode.Launch(p.part, p.tp, p.surcharge)
	}
}

func coastProgQuiet(arg any) bool {
	p := arg.(*coastProgram)
	if !p.coast || len(p.quiet) == 0 {
		return false
	}
	b := p.quiet[p.draws/8%len(p.quiet)]>>(p.draws%8)&1 == 1
	p.draws++
	return b
}

// foreign is one event of the program that is not the stream's.
type foreign struct {
	p      *coastProgram
	action byte
	param  int
}

func fireForeign(arg any) {
	f := arg.(*foreign)
	p := f.p
	switch f.action % 6 {
	case 0: // a co-running kernel on the other partition
		p.side.LaunchFn(gpu.Kernel{Label: "side", Kind: gpu.Prefill, FLOPs: float64(f.param+1) * 1e12,
			Bytes: float64(f.param%7+1) * 1e9, Tokens: f.param * 64, Launch: sim.Time(f.param%3) * sim.Microsecond}, nil, nil)
	case 1: // a resize of the decode partition
		p.part.SetSMs(1 + f.param%p.env.Spec.SMs)
	case 2: // a Stats read, which settles a deferred start
		p.dev.Stats()
	case 3: // nothing: only the tie
	case 4: // a kernel queued on the decode partition itself
		p.part.LaunchFn(gpu.Kernel{Label: "aux", Kind: gpu.Aux, Bytes: float64(f.param+1) * 1e8,
			Launch: sim.Time(f.param%2) * sim.Microsecond}, nil, nil)
	case 5: // a request joins the batch, mid-iteration or into an idle stream
		if len(p.spares) > 0 {
			p.decode.Add(p.spares[0])
			p.spares = p.spares[1:]
			if !p.decode.Running {
				p.decode.Launch(p.part, p.tp, p.surcharge)
			}
		}
	}
}

// coastResult is everything FuzzDecodeCoast compares between a run that
// coasts and one whose every boundary goes to the handler. The loop's
// counters are in their evented form: a folded iteration counts as the
// event it stands for.
type coastResult struct {
	records []metrics.Record
	summary metrics.Summary
	dev     gpu.Stats
	loop    sim.LoopStats
}

// runCoast runs the program described by data. foreign events land at
// the given instants; limit, when positive, stops the first RunUntil
// there and snapshots the device before the run resumes.
func runCoast(data []byte, coast bool, at []sim.Time, limit sim.Time) (res [2]coastResult, bounds []sim.Time) {
	byteAt := func(i int) int {
		if len(data) == 0 {
			return 0
		}
		return int(data[i%len(data)])
	}
	s := sim.New()
	spec := gpu.A100()
	arch := model.Llama8B()
	tp := 1 + byteAt(0)%2
	p := &coastProgram{
		env:   &Env{Config: Config{Spec: spec, GPUs: tp, Arch: arch}, Sim: s, Rec: metrics.NewRecorder()},
		tp:    tp,
		coast: coast,
		quiet: data,
	}
	if byteAt(1)%3 == 0 {
		p.surcharge = float64(byteAt(2)) * 1e8
	}
	if byteAt(3)%3 == 0 {
		p.decode.Transform = func(c model.Cost, _ int) (model.Cost, float64) {
			c.Bytes *= 2
			return c, spec.MFUDecode * 1.15
		}
	}
	p.dev = gpu.NewDevice(s, spec, tp, "coast")
	p.part = p.dev.Partition(spec.SMs-byteAt(4)%40, "decode")
	p.side = p.dev.Partition(1+byteAt(5)%spec.SMs, "side")
	p.decode.Bind(p.env, coastProgDone, coastProgQuiet, p)
	n := 1 + byteAt(6)%6
	for i := range 2 * n {
		r := &Running{R: &workload.Request{ID: i, InputTokens: 100 + 50*byteAt(7+i), OutputTokens: 1 + byteAt(8+i)%48}}
		p.env.Rec.Arrive(i, 0, r.R.InputTokens)
		FirstToken(p.env.Rec, r, 0)
		if i < n {
			p.decode.Add(r)
		} else {
			p.spares = append(p.spares, r)
		}
	}
	for i, t := range at {
		s.AtFunc(t, fireForeign, &foreign{p: p, action: byte(byteAt(20 + 2*i)), param: byteAt(21 + 2*i)})
	}
	p.decode.Launch(p.part, p.tp, p.surcharge)
	snap := func() coastResult {
		now := s.Now()
		loop := s.Stats()
		loop.Fired += loop.Folded
		loop.Scheduled += loop.Folded
		loop.Folded = 0
		return coastResult{p.env.Rec.Records(), p.env.Rec.Summarize("coast", now), p.dev.Stats(), loop}
	}
	if limit > 0 {
		s.RunUntil(limit)
		res[0] = snap()
	}
	s.Run()
	res[1] = snap()
	return res, p.bounds
}

// FuzzDecodeCoast checks that coasting changes nothing: a program whose
// quiet predicate is drawn per boundary leaves the recorder, the device's
// Stats and the event loop's counters, folds counted as the events they
// stand for, exactly as the same program does when every boundary goes to
// the handler, which relaunches the same iteration. Foreign events (a co-running kernel, a resize of the decode
// partition, a Stats read, a bare tie, a kernel queued on the decode
// partition, a request joining the batch) land at boundaries of a plain
// run, inside a launch gap, at ready instants and at end instants, and
// the first RunUntil stops inside an iteration.
func FuzzDecodeCoast(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0x03, 0x10, 0x00, 0x07, 0x20, 0x05, 0x01, 0x30, 0x02, 0x11, 0xaa, 0x55, 0x0f})
	f.Add([]byte("coast through the quiet boundaries of a decode batch"))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, plain := runCoast(data, false, nil, 0)
		if len(plain) == 0 {
			t.Fatal("the plain run reached no boundary")
		}
		graph := gpu.A100().GraphLaunch
		var at []sim.Time
		for i := 0; i < 12 && len(data) > 0; i++ {
			b := plain[int(data[(9+i)%len(data)])%len(plain)]
			switch data[(13+i)%len(data)] % 4 {
			case 0: // at the boundary
			case 1: // inside the launch gap of the iteration launched there
				b += graph / 2
			case 2: // at its ready instant
				b += graph
			case 3: // at its end instant, the next boundary
				if j := slices.Index(plain, b); j+1 < len(plain) {
					b = plain[j+1]
				}
			}
			at = append(at, b)
		}
		limit := plain[len(plain)/2] + graph + 1
		want, _ := runCoast(data, false, at, limit)
		got, _ := runCoast(data, true, at, limit)
		for i, phase := range []string{"at the RunUntil limit", "at the end"} {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s, coasting moved the run:\ncoast:   %+v\nhandler: %+v", phase, got[i], want[i])
			}
		}
	})
}

// Value receivers in a hot-path package: a struct of more than 80 bytes
// is copied on every call.
package model

import "fmt"

// Arch is 13 words, 104 bytes on amd64.
type Arch struct {
	Name                                       string
	Layers, Hidden, Heads, KVHeads, HeadDim    int
	FFN, Vocab, Experts, Active, Expert, Bytes int
}

func (a Arch) Params() float64 { // want `method Params copies its 104-byte Arch receiver`
	return float64(a.Layers * a.Hidden)
}

func (a *Arch) MoE() bool { return a.Experts > 0 } // pointer receiver: no copy

func (a Arch) String() string { // cold formatting method: allowed
	return fmt.Sprintf("%s(%dL)", a.Name, a.Layers)
}

// Shape is 10 words, exactly 80 bytes: at the limit, not over it.
type Shape struct {
	A, B, C, D, E, F, G, H, I, J int
}

func (s Shape) Tokens() int { return s.A * s.B }

// Ctxs is a slice type: its value receiver is a 24-byte header.
type Ctxs []int

func (c Ctxs) Total() int {
	t := 0
	for _, x := range c {
		t += x
	}
	return t
}

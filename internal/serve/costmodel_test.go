package serve

import (
	"testing"

	"muxwise/internal/estimator"
	"muxwise/internal/gpu"
	"muxwise/internal/model"
	"muxwise/internal/roofline"
)

// TestCostSeamSelectsModel pins the seam's dispatch: the Env really hands
// engines a different estimator per cost-model name, and the default is
// the fitted one.
func TestCostSeamSelectsModel(t *testing.T) {
	env := &Env{Config: Config{Spec: gpu.A100(), GPUs: 1, Arch: model.Llama8B()}}
	if _, ok := env.Cost().(*estimator.Estimator); !ok {
		t.Fatalf("empty cost model resolved to %T, want the fitted estimator", env.Cost())
	}
	env.CostModel = CostFitted
	if _, ok := env.Cost().(*estimator.Estimator); !ok {
		t.Fatalf("%q resolved to %T", CostFitted, env.Cost())
	}
	env.CostModel = CostRoofline
	rl, ok := env.Cost().(*roofline.Model)
	if !ok {
		t.Fatalf("%q resolved to %T, want *roofline.Model", CostRoofline, env.Cost())
	}
	if rl.Spec.Name != env.Spec.Name || rl.TP != env.GPUs || rl.Arch.Name != env.Arch.Name {
		t.Fatalf("roofline model built for %s/tp=%d/%s, want %s/tp=%d/%s",
			rl.Spec.Name, rl.TP, rl.Arch.Name, env.Spec.Name, env.GPUs, env.Arch.Name)
	}

	env.CostModel = "datasheet"
	defer func() {
		if recover() == nil {
			t.Fatal("unknown cost model did not panic (ValidCostModel should gate it upstream)")
		}
	}()
	env.Cost()
}

// TestValidCostModel covers the gate the config layers rely on.
func TestValidCostModel(t *testing.T) {
	for _, name := range []string{"", CostFitted, CostRoofline} {
		if !ValidCostModel(name) {
			t.Errorf("ValidCostModel(%q) = false", name)
		}
	}
	for _, name := range []string{"datasheet", "Fitted", "ROOFLINE", "none"} {
		if ValidCostModel(name) {
			t.Errorf("ValidCostModel(%q) = true", name)
		}
	}
	if got := CostModels(); len(got) != 2 || got[0] != CostFitted || got[1] != CostRoofline {
		t.Errorf("CostModels() = %v", got)
	}
}

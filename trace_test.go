package muxwise_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muxwise"
	"muxwise/internal/obs"
)

// drainMigrateExperiment builds the flight recorder's acceptance
// scenario: a two-replica fleet rolls replica 0 out behind a pre-spawned
// replacement with KV migration streaming — every span family (request
// lifecycle, fleet lifecycle, router picks, kv-migration streams) fires.
func drainMigrateExperiment(fr *muxwise.FlightRecorder) *muxwise.Experiment {
	opts := []muxwise.Option{
		muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 2}),
		muxwise.WithRouter("prefix-affinity"),
		muxwise.WithColdStart(15 * muxwise.Second),
		muxwise.WithEvents(
			muxwise.FleetEvent{At: 28 * muxwise.Second, Kind: "spawn"},
			muxwise.FleetEvent{At: 45 * muxwise.Second, Kind: "drain", Replica: 0},
		),
		muxwise.WithMigration(),
	}
	if fr != nil {
		opts = append(opts, muxwise.WithTrace(fr))
	}
	return muxwise.NewExperiment(opts...)
}

// failureExperiment crashes a replica mid-run, so the trace carries
// abort-ended request spans and a fleet failure event.
func failureExperiment(fr *muxwise.FlightRecorder) *muxwise.Experiment {
	opts := []muxwise.Option{
		muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		muxwise.WithFleet(muxwise.ReplicaSpec{Engine: "MuxWise", Count: 2}),
		muxwise.WithRouter("least-tokens"),
		muxwise.WithEvents(muxwise.FleetEvent{At: 30 * muxwise.Second, Kind: "fail", Replica: 0}),
	}
	if fr != nil {
		opts = append(opts, muxwise.WithTrace(fr))
	}
	return muxwise.NewExperiment(opts...)
}

// digest reduces a report to the bytes the determinism guard compares.
func digest(t *testing.T, rep *muxwise.Report) []byte {
	t.Helper()
	raw, err := json.Marshal(struct {
		Summary    muxwise.Summary
		Attainment float64
		MissCauses muxwise.MissBreakdown
	}{rep.Summary, rep.Attainment, rep.MissCauses})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTraceDeterminism is the zero-perturbation guard: attaching a
// flight recorder must leave every simulation result byte-identical —
// recording is observation, never participation.
func TestTraceDeterminism(t *testing.T) {
	scenarios := []struct {
		name string
		mk   func(*muxwise.FlightRecorder) *muxwise.Experiment
	}{
		{"drain-migrate", drainMigrateExperiment},
		{"failure", failureExperiment},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			trace := muxwise.MixedBursty(1, 40, 0.2)
			plain, err := sc.mk(nil).Run(trace)
			if err != nil {
				t.Fatal(err)
			}
			fr := muxwise.NewFlightRecorder()
			trace2 := muxwise.MixedBursty(1, 40, 0.2)
			traced, err := sc.mk(fr).Run(trace2)
			if err != nil {
				t.Fatal(err)
			}
			if fr.Len() == 0 {
				t.Fatal("flight recorder captured nothing")
			}
			if got, want := digest(t, traced), digest(t, plain); !bytes.Equal(got, want) {
				t.Errorf("tracing perturbed the run:\n  traced: %s\n  plain:  %s", got, want)
			}
			// Recording twice must also be byte-stable with itself.
			fr2 := muxwise.NewFlightRecorder()
			if _, err := sc.mk(fr2).Run(muxwise.MixedBursty(1, 40, 0.2)); err != nil {
				t.Fatal(err)
			}
			var buf1, buf2 bytes.Buffer
			if err := muxwise.WriteChromeTrace(&buf1, fr); err != nil {
				t.Fatal(err)
			}
			if err := muxwise.WriteChromeTrace(&buf2, fr2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Error("two identical traced runs produced different trace files")
			}
		})
	}
}

// TestTraceChromeValid checks the exported Chrome trace-event JSON is
// structurally sound (the format Perfetto loads) and that the
// drain-migrate scenario's KV-migration stream spans carry their
// payload: byte counts and the interconnect link class.
func TestTraceChromeValid(t *testing.T) {
	fr := muxwise.NewFlightRecorder()
	if _, err := drainMigrateExperiment(fr).Run(muxwise.MixedBursty(1, 40, 0.2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := muxwise.WriteChromeTrace(&buf, fr); err != nil {
		t.Fatal(err)
	}
	if issues := obs.ValidateChromeTrace(buf.Bytes()); len(issues) > 0 {
		t.Fatalf("invalid Chrome trace: %v", issues)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var streams, picks, autoscaleOrFleet int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "kv-migration" && ev.Ph == "b":
			streams++
			if b, ok := ev.Args["bytes"].(float64); !ok || b <= 0 {
				t.Errorf("kv-stream span without a positive bytes arg: %v", ev.Args)
			}
			if link, ok := ev.Args["link"].(string); !ok || link == "" {
				t.Errorf("kv-stream span without a link class: %v", ev.Args)
			}
		case ev.Name == "pick":
			picks++
		case ev.Name == "spawn" || ev.Name == "drain" || ev.Name == "ready":
			autoscaleOrFleet++
		}
	}
	if streams == 0 {
		t.Error("drain-migrate trace has no kv-migration stream spans")
	}
	if picks == 0 {
		t.Error("trace has no router pick records")
	}
	if autoscaleOrFleet == 0 {
		t.Error("trace has no fleet lifecycle events")
	}
}

// TestTraceJSONL checks the compact stream: every line is a standalone
// JSON object with the event envelope.
func TestTraceJSONL(t *testing.T) {
	fr := muxwise.NewFlightRecorder()
	if _, err := drainMigrateExperiment(fr).Run(muxwise.MixedBursty(1, 40, 0.2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := muxwise.WriteTraceJSONL(&buf, fr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != fr.Len() {
		t.Fatalf("%d JSONL lines for %d events", len(lines), fr.Len())
	}
	for i, line := range lines {
		var ev struct {
			At    *int64 `json:"at"`
			Ph    string `json:"ph"`
			Track string `json:"track"`
			Name  string `json:"name"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d: %v\n%s", i+1, err, line)
		}
		if ev.At == nil || ev.Ph == "" || ev.Track == "" || ev.Name == "" {
			t.Fatalf("line %d missing envelope fields: %s", i+1, line)
		}
	}
}

// TestTraceSingleEngine: the recorder also rides plain single-engine
// runs (no fleet), capturing prefill/decode spans from the core engine.
func TestTraceSingleEngine(t *testing.T) {
	fr := muxwise.NewFlightRecorder()
	exp := muxwise.NewExperiment(
		muxwise.WithDeployment(muxwise.Deployment{Hardware: "A100", GPUs: 1, Model: "Llama-8B"}),
		muxwise.WithEngine("MuxWise"),
		muxwise.WithTrace(fr),
	)
	trace := muxwise.ShareGPT(1, 50).WithPoissonArrivals(1, 4)
	if _, err := exp.Run(trace); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := muxwise.WriteChromeTrace(&buf, fr); err != nil {
		t.Fatal(err)
	}
	if issues := obs.ValidateChromeTrace(buf.Bytes()); len(issues) > 0 {
		t.Fatalf("invalid Chrome trace: %v", issues)
	}
	out := buf.String()
	for _, want := range []string{`"prefill"`, `"decode-iter"`, `"first-token"`} {
		if !strings.Contains(out, want) {
			t.Errorf("single-engine trace missing %s spans", want)
		}
	}
}

// traceExportGolden is what testdata/traces.json pins per scenario: the
// flight recorder's event count and the sha256 of both exports.
type traceExportGolden struct {
	Events int    `json:"events"`
	Chrome string `json:"chrome_sha256"`
	JSONL  string `json:"jsonl_sha256"`
}

// TestTraceExportGolden pins the Chrome and JSONL trace exports of the
// drain-migrate and failure scenarios byte for byte, across commits:
// fleet and tracing refactors must leave testdata/traces.json untouched.
// -update (declared in engines_golden_test.go, same test binary)
// rewrites it:
//
//	go test . -run TestTraceExportGolden -update
func TestTraceExportGolden(t *testing.T) {
	scenarios := []struct {
		name string
		mk   func(*muxwise.FlightRecorder) *muxwise.Experiment
	}{
		{"drain-migrate", drainMigrateExperiment},
		{"failure", failureExperiment},
	}
	path := filepath.Join("testdata", "traces.json")
	want := map[string]traceExportGolden{}
	update := flag.Lookup("update").Value.String() == "true"
	if !update {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatalf("golden unreadable: %v", err)
		}
	}
	got := map[string]traceExportGolden{}
	for _, sc := range scenarios {
		fr := muxwise.NewFlightRecorder()
		if _, err := sc.mk(fr).Run(muxwise.MixedBursty(1, 40, 0.2)); err != nil {
			t.Fatal(err)
		}
		var chrome, jsonl bytes.Buffer
		if err := muxwise.WriteChromeTrace(&chrome, fr); err != nil {
			t.Fatal(err)
		}
		if err := muxwise.WriteTraceJSONL(&jsonl, fr); err != nil {
			t.Fatal(err)
		}
		g := traceExportGolden{
			Events: fr.Len(),
			Chrome: fmt.Sprintf("%x", sha256.Sum256(chrome.Bytes())),
			JSONL:  fmt.Sprintf("%x", sha256.Sum256(jsonl.Bytes())),
		}
		got[sc.name] = g
		if update || g == want[sc.name] {
			continue
		}
		dir := t.TempDir()
		for file, data := range map[string][]byte{"trace.json": chrome.Bytes(), "trace.jsonl": jsonl.Bytes()} {
			if err := os.WriteFile(filepath.Join(dir, file), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Errorf("%s: trace export drifted:\n got %+v\nwant %+v\nexports written under %s",
			sc.name, g, want[sc.name], dir)
	}
	if update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"muxwise/internal/cluster/epp"
)

// CompositionPrefix marks an inline pipeline spec wherever a router
// name is accepted (WithRouter, muxcluster -router, sweep tables): new
// policies become config, not code.
const CompositionPrefix = "epp:"

// compositionPlan is a validated, buildable form of an "epp:" spec.
// Parsing happens once; each Policy invocation assembles a fresh
// pipeline (stages carry per-run state).
type compositionPlan struct {
	spec    string
	filters []string // "role:<r1|r2...>", "sticky", "divert", "divert-widen"
	scorers []struct {
		name   string
		weight float64
	}
	picker string // "max-score" (default) or "round-robin"
}

// ParseComposition parses an inline filter → scorer → picker spec into
// a router Policy. The grammar is semicolon-separated clauses after the
// "epp:" prefix:
//
//		epp:scorers=prefix:2,least-tokens:1
//		epp:filters=role:prefill,divert-widen;scorers=least-tokens
//		epp:picker=round-robin
//
//	  - filters — comma-separated, applied in order: role:<name|name...>
//	    (keep those roles, e.g. role:prefill or role:general|decode),
//	    sticky (narrow to the session's KV holder), divert (drop the
//	    holder), divert-widen (drop the holder, widening to the full
//	    view when the pool empties).
//	  - scorers — comma-separated name[:weight] pairs forming ONE
//	    weighted tier (weights default to 1; remaining ties fall to the
//	    lowest replica ID): prefix, session, least-tokens,
//	    least-requests, ttft-ewma.
//	  - picker — max-score (default) or round-robin.
//
// Any affinity-backed stage (prefix, session, sticky, divert) shares
// one affinity state, recorded on every pick; ttft-ewma wires itself
// into the TTFT observer fan-out. Unlike the built-in compositions
// there is no classifier: the single profile routes every request, so
// sticky here pins sessions unconditionally (no overload guard).
func ParseComposition(spec string) (Policy, error) {
	plan, err := parsePlan(spec)
	if err != nil {
		return nil, err
	}
	return plan.policy(), nil
}

func parsePlan(spec string) (*compositionPlan, error) {
	body, ok := strings.CutPrefix(spec, CompositionPrefix)
	if !ok {
		return nil, fmt.Errorf("cluster: composition spec %q must start with %q", spec, CompositionPrefix)
	}
	plan := &compositionPlan{spec: spec, picker: "max-score"}
	for _, clause := range strings.Split(body, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		key, val, found := strings.Cut(clause, "=")
		if !found {
			return nil, fmt.Errorf("cluster: composition clause %q wants key=value (in %q)", clause, spec)
		}
		switch key {
		case "filters":
			for _, f := range strings.Split(val, ",") {
				f = strings.TrimSpace(f)
				if err := validFilter(f); err != nil {
					return nil, fmt.Errorf("cluster: %v (in %q)", err, spec)
				}
				plan.filters = append(plan.filters, f)
			}
		case "scorers":
			for _, s := range strings.Split(val, ",") {
				name, weight, err := parseScorer(strings.TrimSpace(s))
				if err != nil {
					return nil, fmt.Errorf("cluster: %v (in %q)", err, spec)
				}
				plan.scorers = append(plan.scorers, struct {
					name   string
					weight float64
				}{name, weight})
			}
		case "picker":
			switch val {
			case "max-score", "round-robin":
				plan.picker = val
			default:
				return nil, fmt.Errorf("cluster: unknown picker %q (in %q)", val, spec)
			}
		default:
			return nil, fmt.Errorf("cluster: unknown composition clause %q (in %q)", key, spec)
		}
	}
	if len(plan.scorers) == 0 && len(plan.filters) == 0 && plan.picker == "max-score" {
		return nil, fmt.Errorf("cluster: empty composition %q: add filters=, scorers= or picker=", spec)
	}
	return plan, nil
}

func validFilter(f string) error {
	switch {
	case f == "sticky", f == "divert", f == "divert-widen":
		return nil
	case strings.HasPrefix(f, "role:"):
		for _, r := range strings.Split(strings.TrimPrefix(f, "role:"), "|") {
			if _, err := ParseRole(r); err != nil || r == "" {
				return fmt.Errorf("filter %q: unknown role %q", f, r)
			}
		}
		return nil
	}
	return fmt.Errorf("unknown filter %q (want role:<r>, sticky, divert, divert-widen)", f)
}

func parseScorer(s string) (string, float64, error) {
	name, w, hasWeight := strings.Cut(s, ":")
	weight := 1.0
	if hasWeight {
		v, err := strconv.ParseFloat(w, 64)
		// NaN and ±Inf would make every weighted score NaN, and max-score
		// would then silently pick the first candidate.
		if err != nil || !(v > 0) || math.IsInf(v, 1) {
			return "", 0, fmt.Errorf("scorer %q: weight %q must be a positive finite number", s, w)
		}
		weight = v
	}
	switch name {
	case "prefix", "session", "least-tokens", "least-requests", "ttft-ewma":
		return name, weight, nil
	}
	return "", 0, fmt.Errorf("unknown scorer %q (want prefix, session, least-tokens, least-requests, ttft-ewma)", name)
}

// policy assembles a fresh pipeline per invocation — stages carry
// per-run state (affinity maps, EWMAs, the round-robin cursor).
func (plan *compositionPlan) policy() Policy {
	return func() Router {
		aff := epp.NewAffinity[*Replica]()
		var filters []epp.Filter[*Replica]
		for _, f := range plan.filters {
			switch {
			case f == "sticky":
				filters = append(filters, epp.StickySession(aff))
			case f == "divert":
				filters = append(filters, epp.Divert(aff, false))
			case f == "divert-widen":
				filters = append(filters, epp.Divert(aff, true))
			default: // role:<r1|r2...>, validated at parse time
				var roles []Role
				for _, r := range strings.Split(strings.TrimPrefix(f, "role:"), "|") {
					role, _ := ParseRole(r)
					roles = append(roles, role)
				}
				filters = append(filters, epp.KeepRoles[*Replica](roles...))
			}
		}
		var t []epp.Weighted[*Replica]
		state := []any{aff}
		for _, s := range plan.scorers {
			var sc epp.Scorer[*Replica]
			switch s.name {
			case "prefix":
				sc = epp.PrefixMatch(aff)
			case "session":
				sc = epp.SessionMatch(aff)
			case "least-tokens":
				sc = epp.LeastTokens[*Replica]()
			case "least-requests":
				sc = epp.LeastRequests[*Replica]()
			case "ttft-ewma":
				learned := epp.NewTTFTScorer[*Replica]()
				state = append(state, learned)
				sc = learned
			}
			t = append(t, epp.Weighted[*Replica]{Scorer: sc, Weight: s.weight})
		}
		prof := PipelineProfile{Name: "composed", Filters: filters}
		if len(t) > 0 {
			prof.Scorers = [][]epp.Weighted[*Replica]{t}
		}
		if plan.picker == "round-robin" {
			prof.Picker = epp.RoundRobin[*Replica]()
		}
		return epp.New(plan.spec, nil, []PipelineProfile{prof}, state...)
	}
}

// ResolvePolicy resolves a router selector: a registered policy name
// (built-in or RegisterPolicy), or an inline "epp:" composition spec.
func ResolvePolicy(name string) (Policy, error) {
	if p, ok := Policies()[name]; ok {
		return p, nil
	}
	if strings.HasPrefix(name, CompositionPrefix) {
		return ParseComposition(name)
	}
	return nil, fmt.Errorf("cluster: unknown router %q (have %v, or an %q composition spec)",
		name, PolicyNames(), CompositionPrefix)
}

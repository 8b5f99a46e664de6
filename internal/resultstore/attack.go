package resultstore

import (
	"encoding/json"
	"fmt"

	"impress/internal/attack"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/security"
	"impress/internal/stats"
	"impress/internal/trackers"
)

// Attack-evaluation records: the synthesis loop and the
// paper-vs-synthesized margin table evaluate thousands of (pattern,
// tracker, design) triples through the security harness, and each
// evaluation is deterministic given its fully-resolved spec — exactly
// the property the result store exists to exploit. Identical genomes
// across generations, restarts and fleet shards are cache hits.

// KindAttack marks a security-harness evaluation record.
const KindAttack = "attack"

// attackPreamble domain-separates attack keys from result and
// checkpoint keys.
const attackPreamble = "impress-resultstore/attack/v1\n"

// AttackSpec is the canonical, serializable description of one security
// evaluation: two specs are equal if and only if the harness is bound
// to produce identical Results for them. The same omitempty discipline
// as Spec keeps preimages stable when optional fields are zero.
type AttackSpec struct {
	// Pattern is the canonical pattern spec attack.BySpec resolves: a
	// paper pattern name or "synth:<genome>".
	Pattern string `json:"pattern"`

	// Tracker is the registry name of the tracker under test.
	Tracker string `json:"tracker"`

	Design    core.Design `json:"design"`
	DesignTRH float64     `json:"designTRH"`
	AlphaTrue float64     `json:"alphaTrue"`
	RFMTH     int         `json:"rfmth,omitempty"`

	// Duration bounds the attack in ticks; zero means one tREFW.
	Duration int64 `json:"duration,omitempty"`
	// Seed feeds probabilistic trackers' private RNG streams.
	Seed uint64 `json:"seed,omitempty"`
}

// Validate reports whether the spec resolves to a runnable evaluation.
func (s AttackSpec) Validate() error {
	if _, ok := trackers.ByName(s.Tracker); !ok {
		return fmt.Errorf("resultstore: %w: unknown tracker %q (have %v)",
			errs.ErrBadSpec, s.Tracker, trackers.Names())
	}
	if _, err := attack.BySpec(s.Pattern, s.Design.Timings); err != nil {
		return err
	}
	return nil
}

func (s AttackSpec) canonicalJSON() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("resultstore: marshalling attack spec: %v", err))
	}
	return b
}

// Key returns the spec's content address.
func (s AttackSpec) Key() Key { return keyOf(attackPreamble, s.canonicalJSON()) }

// SecurityConfig materializes the runnable harness configuration and
// pattern (the inverse of the spec): the tracker factory builds the
// registry entry with a private RNG stream seeded by the spec, so
// evaluation is a pure function of the spec.
func (s AttackSpec) SecurityConfig() (security.Config, attack.Pattern, error) {
	info, ok := trackers.ByName(s.Tracker)
	if !ok {
		return security.Config{}, nil, fmt.Errorf("resultstore: %w: unknown tracker %q (have %v)",
			errs.ErrBadSpec, s.Tracker, trackers.Names())
	}
	p, err := attack.BySpec(s.Pattern, s.Design.Timings)
	if err != nil {
		return security.Config{}, nil, err
	}
	spec := s
	cfg := security.Config{
		Design:    s.Design,
		DesignTRH: s.DesignTRH,
		AlphaTrue: s.AlphaTrue,
		RFMTH:     s.RFMTH,
		Duration:  dram.Tick(s.Duration),
		Tracker: func(trh float64) trackers.Tracker {
			return info.New(trh, spec.RFMTH, stats.NewRand(spec.Seed))
		},
	}
	return cfg, p, nil
}

// GetAttack returns the cached harness result for spec s, if present.
// As with Get, every failure mode — an undecodable payload included — is
// a miss, never an error.
func (st *Store) GetAttack(s AttackSpec) (security.Result, bool) {
	var res security.Result
	canon := s.canonicalJSON()
	if _, ok := st.get(KindAttack, keyOf(attackPreamble, canon), canon, &res); !ok {
		return security.Result{}, false
	}
	return res, true
}

// PutAttack stores the harness result for spec s, with Put's atomicity
// guarantees.
func (st *Store) PutAttack(s AttackSpec, res security.Result) error {
	return st.put(record{Kind: KindAttack, Key: s.Key(), Attack: &s}, res)
}

package resultstore

import "impress/internal/sim"

// AttachCheckpoints wires cfg to the store's warmup-checkpoint cache;
// spec is cfg's canonical spec (SpecFor), which the caller has already
// derived for its result lookup. On a checkpoint hit the payload is
// validated — it must decode and match cfg — and installed as
// cfg.RestoreCheckpoint, so the run restores the post-warmup state
// instead of simulating it; restored is true exactly then. On a miss
// (including an invalid stored payload, which readRecord or validation
// demotes to a miss), publish decides whether cfg.OnCheckpoint is
// installed so the straight-through run persists its checkpoint for a
// later run sharing the warmup prefix. A caller with no such reader
// passes false and skips capturing, encoding and writing it.
//
// Runs without warmup have nothing to checkpoint, and callers that set
// their own RestoreCheckpoint/OnCheckpoint are left alone.
func (st *Store) AttachCheckpoints(cfg *sim.Config, spec Spec, publish bool) (restored bool) {
	if cfg.WarmupInstructions <= 0 || cfg.RestoreCheckpoint != nil || cfg.OnCheckpoint != nil {
		return false
	}
	if payload, ok := st.GetCheckpoint(spec); ok {
		if ck, err := sim.DecodeCheckpoint(payload); err == nil && ck.CompatibleWith(*cfg) == nil {
			cfg.RestoreCheckpoint = payload
			return true
		}
	}
	if publish {
		cfg.OnCheckpoint = func(data []byte) {
			_ = st.PutCheckpoint(spec, data) // persistence best-effort, like Put
		}
	}
	return false
}

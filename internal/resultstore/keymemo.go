package resultstore

import (
	"math"
	"sync"
)

// keyMemoEntries bounds the process-wide key memo. It holds the quick,
// standard and full spec universes together (282 + 940 + 940 specs) at
// about a kilobyte per entry.
const keyMemoEntries = 4096

// specKeys memoizes, per process, each Spec value's canonical preimage
// and result key, so Spec.Key, Get, Put and readRecord marshal and hash
// a spec once, not once per call: across runners, jobs and store
// handles alike.
var specKeys keyMemo

// keyMemo is a bounded map from a Spec value to its preimage and key.
// Entries leave oldest first once keyMemoEntries are held; an evicted
// spec is simply derived again.
type keyMemo struct {
	mu    sync.Mutex
	m     map[Spec]preimage
	order []Spec // insertion ring once full: order[next] is evicted first
	next  int
}

// preimage is a spec's canonical JSON and the result key it hashes to.
// canon is shared by every caller and must not be modified.
type preimage struct {
	canon []byte
	key   Key
}

// keyed returns s's canonical preimage and result key. Specs whose ==
// is not preimage equality bypass the memo (see bypassesMemo).
func (s Spec) keyed() ([]byte, Key) {
	if bypassesMemo(s) {
		canon := s.canonicalJSON()
		return canon, keyOf(keyPreamble, canon)
	}
	specKeys.mu.Lock()
	p, ok := specKeys.m[s]
	specKeys.mu.Unlock()
	if !ok {
		canon := s.canonicalJSON()
		p = specKeys.add(s, preimage{canon, keyOf(keyPreamble, canon)})
	}
	return p.canon, p.key
}

// add records s's preimage, evicting the oldest entry when the memo is
// full, and returns the entry the memo holds for s: a concurrent add
// of the same spec may have won.
func (m *keyMemo) add(s Spec, p preimage) preimage {
	m.mu.Lock()
	defer m.mu.Unlock()
	if held, ok := m.m[s]; ok {
		return held
	}
	if m.m == nil {
		m.m = make(map[Spec]preimage)
	}
	if len(m.order) < keyMemoEntries {
		m.order = append(m.order, s)
	} else {
		delete(m.m, m.order[m.next])
		m.order[m.next] = s
		m.next = (m.next + 1) % keyMemoEntries
	}
	m.m[s] = p
	return p
}

// bypassesMemo reports whether a float field of s is negative zero or
// NaN. Map lookup compares floats with ==, so -0 would find 0's entry
// although the two marshal as "-0" and "0", and a NaN never finds its
// own entry, so memoizing it would only churn the memo.
func bypassesMemo(s Spec) bool {
	for _, v := range [...]float64{s.DesignTRH, s.Design.Alpha, s.MaxRelError} {
		if v == 0 && math.Signbit(v) || math.IsNaN(v) {
			return true
		}
	}
	return false
}

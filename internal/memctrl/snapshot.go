package memctrl

import (
	"fmt"

	"impress/internal/clm"
	"impress/internal/core"
	"impress/internal/dram"
	"impress/internal/errs"
	"impress/internal/trackers"
)

// RequestSnapshot is one queued demand request in a checkpoint. Loc is
// not serialized: it is a pure function of Addr under the configured
// mapper and is recomputed on restore.
type RequestSnapshot struct {
	Addr   uint64    `json:"addr"`
	Arrive dram.Tick `json:"arrive"`
}

// CloseEventSnapshot is one scheduled forced row closure. The heap's
// backing array is serialized in slice order and restored verbatim, so
// the restored heap pops in exactly the original order.
type CloseEventSnapshot struct {
	At   dram.Tick `json:"at"`
	Bank int       `json:"bank"`
	Gen  uint64    `json:"gen"`
}

// BankCtlSnapshot is one bank's controller-side state.
type BankCtlSnapshot struct {
	Policy  core.PolicyState `json:"policy"`
	Tracker *trackers.State  `json:"tracker,omitempty"`

	EACTSinceRFM clm.EACT  `json:"eactSinceRFM,omitempty"`
	RFMQueued    bool      `json:"rfmQueued,omitempty"`
	MitigQ       []int64   `json:"mitigQ,omitempty"`
	MitigOpen    bool      `json:"mitigOpen,omitempty"`
	OpenValid    bool      `json:"openValid,omitempty"`
	OpenRow      int64     `json:"openRow,omitempty"`
	ActGen       uint64    `json:"actGen,omitempty"`
	LastUse      dram.Tick `json:"lastUse,omitempty"`
}

// ChannelCtlSnapshot is one channel's controller-side state plus the
// underlying DRAM channel.
type ChannelCtlSnapshot struct {
	DRAM  dram.ChannelSnapshot `json:"dram"`
	Banks []BankCtlSnapshot    `json:"banks"`

	ReadQ  []RequestSnapshot `json:"readQ,omitempty"`
	WriteQ []RequestSnapshot `json:"writeQ,omitempty"`

	BusFreeAt    [2]dram.Tick         `json:"busFreeAt"`
	Refreshing   bool                 `json:"refreshing,omitempty"`
	WriteDrain   bool                 `json:"writeDrain,omitempty"`
	ForcedClose  []CloseEventSnapshot `json:"forcedClose,omitempty"`
	MitigBanks   []int                `json:"mitigBanks,omitempty"`
	RFMBanks     []int                `json:"rfmBanks,omitempty"`
	OpenBanks    int                  `json:"openBanks,omitempty"`
	IdleDeadline dram.Tick            `json:"idleDeadline"`

	Stats Stats `json:"stats"`
}

// ControllerSnapshot is the controller's full mutable state for a warmup
// checkpoint. Configuration (mapper geometry, timings, design, queue
// caps) is rebuilt from the simulation config; Restore validates that
// the snapshot's geometry matches.
type ControllerSnapshot struct {
	WindowEnd dram.Tick            `json:"windowEnd"`
	Issues    uint64               `json:"issues,omitempty"`
	Channels  []ChannelCtlSnapshot `json:"channels"`
}

// Snapshot captures the controller's mutable state. It fails when a bank
// tracker does not support checkpointing (trackers.Snapshotter).
func (c *Controller) Snapshot() (ControllerSnapshot, error) {
	s := ControllerSnapshot{
		WindowEnd: c.windowEnd,
		Issues:    c.issues,
		Channels:  make([]ChannelCtlSnapshot, len(c.channels)),
	}
	for i, cc := range c.channels {
		cs := ChannelCtlSnapshot{
			DRAM:         cc.ch.Snapshot(),
			Banks:        make([]BankCtlSnapshot, len(cc.banks)),
			ReadQ:        snapshotQueue(&cc.readQ),
			WriteQ:       snapshotQueue(&cc.writeQ),
			BusFreeAt:    cc.busFreeAt,
			Refreshing:   cc.refreshing,
			WriteDrain:   cc.writeDrain,
			MitigBanks:   append([]int(nil), cc.mitigBanks...),
			RFMBanks:     append([]int(nil), cc.rfmBanks...),
			OpenBanks:    cc.openBanks,
			IdleDeadline: cc.idleDeadline,
			Stats:        cc.stats,
		}
		for _, ev := range cc.forcedClose {
			cs.ForcedClose = append(cs.ForcedClose, CloseEventSnapshot{At: ev.at, Bank: ev.bank, Gen: ev.gen})
		}
		for b := range cc.banks {
			bank := &cc.banks[b]
			bs := BankCtlSnapshot{
				Policy:       bank.policy.Snapshot(),
				EACTSinceRFM: bank.eactSinceRFM,
				RFMQueued:    bank.rfmQueued,
				MitigQ:       append([]int64(nil), bank.mitigQ...),
				MitigOpen:    bank.mitigOpen,
				OpenValid:    bank.openValid,
				OpenRow:      bank.openRow,
				ActGen:       bank.actGen,
				LastUse:      bank.lastUse,
			}
			if bank.tracker != nil {
				snap, ok := bank.tracker.(trackers.Snapshotter)
				if !ok {
					return ControllerSnapshot{}, fmt.Errorf(
						"memctrl: tracker %s does not support checkpointing", bank.tracker.Name())
				}
				st := snap.Snapshot()
				bs.Tracker = &st
			}
			cs.Banks[b] = bs
		}
		s.Channels[i] = cs
	}
	return s, nil
}

// Restore overwrites the controller's mutable state with a snapshot. The
// controller must be freshly constructed from the same configuration
// that produced the snapshot; mismatched geometry or out-of-range
// indices yield errors wrapping errs.ErrBadSpec.
func (c *Controller) Restore(s ControllerSnapshot) error {
	if len(s.Channels) != len(c.channels) {
		return fmt.Errorf("memctrl: %w: checkpoint has %d channels, controller has %d",
			errs.ErrBadSpec, len(s.Channels), len(c.channels))
	}
	for i, cc := range c.channels {
		cs := &s.Channels[i]
		nb := len(cc.banks)
		if len(cs.Banks) != nb {
			return fmt.Errorf("memctrl: %w: checkpoint channel %d has %d banks, controller has %d",
				errs.ErrBadSpec, i, len(cs.Banks), nb)
		}
		if len(cs.ReadQ) > c.cfg.ReadQueueCap || len(cs.WriteQ) > c.cfg.WriteQueueCap {
			return fmt.Errorf("memctrl: %w: checkpoint queues (%d reads, %d writes) exceed caps (%d, %d)",
				errs.ErrBadSpec, len(cs.ReadQ), len(cs.WriteQ), c.cfg.ReadQueueCap, c.cfg.WriteQueueCap)
		}
		for _, ev := range cs.ForcedClose {
			if ev.Bank < 0 || ev.Bank >= nb {
				return fmt.Errorf("memctrl: %w: forced-close bank %d out of range [0,%d)",
					errs.ErrBadSpec, ev.Bank, nb)
			}
		}
		for _, b := range cs.MitigBanks {
			if b < 0 || b >= nb {
				return fmt.Errorf("memctrl: %w: mitigation bank %d out of range [0,%d)",
					errs.ErrBadSpec, b, nb)
			}
		}
		for _, b := range cs.RFMBanks {
			if b < 0 || b >= nb {
				return fmt.Errorf("memctrl: %w: RFM bank %d out of range [0,%d)",
					errs.ErrBadSpec, b, nb)
			}
		}
		if err := cc.ch.Restore(cs.DRAM); err != nil {
			return err
		}
		for b := range cc.banks {
			bank := &cc.banks[b]
			bs := &cs.Banks[b]
			if (bank.tracker != nil) != (bs.Tracker != nil) {
				return fmt.Errorf("memctrl: %w: checkpoint tracker presence mismatch on bank %d",
					errs.ErrBadSpec, b)
			}
			if bank.tracker != nil {
				snap, ok := bank.tracker.(trackers.Snapshotter)
				if !ok {
					return fmt.Errorf("memctrl: tracker %s does not support checkpointing", bank.tracker.Name())
				}
				if err := snap.RestoreState(*bs.Tracker); err != nil {
					return err
				}
			}
			bank.policy.Restore(bs.Policy)
			bank.eactSinceRFM = bs.EACTSinceRFM
			bank.rfmQueued = bs.RFMQueued
			bank.mitigQ = append(bank.mitigQ[:0], bs.MitigQ...)
			bank.mitigOpen = bs.MitigOpen
			bank.openValid = bs.OpenValid
			bank.openRow = bs.OpenRow
			bank.actGen = bs.ActGen
			bank.lastUse = bs.LastUse
		}
		clear(cc.openMask)
		for b := range cc.banks {
			if cc.banks[b].openValid {
				cc.openMask.add(b)
			}
		}
		if err := c.restoreQueue(cc, &cc.readQ, cs.ReadQ); err != nil {
			return err
		}
		if err := c.restoreQueue(cc, &cc.writeQ, cs.WriteQ); err != nil {
			return err
		}
		for b := range cc.banks {
			c.retime(cc, b)
		}
		cc.busFreeAt = cs.BusFreeAt
		cc.refreshing = cs.Refreshing
		cc.writeDrain = cs.WriteDrain
		cc.forcedClose = cc.forcedClose[:0]
		for _, ev := range cs.ForcedClose {
			cc.forcedClose = append(cc.forcedClose, closeEvent{at: ev.At, bank: ev.Bank, gen: ev.Gen})
		}
		cc.mitigBanks = append(cc.mitigBanks[:0], cs.MitigBanks...)
		cc.rfmBanks = append(cc.rfmBanks[:0], cs.RFMBanks...)
		cc.openBanks = cs.OpenBanks
		cc.windowAt = 0 // the next window step recomputes it
		cc.idleDeadline = cs.IdleDeadline
		cc.stats = cs.Stats
	}
	c.windowEnd = s.WindowEnd
	c.issues = s.Issues
	return nil
}

func snapshotQueue(q *reqQueue) []RequestSnapshot {
	reqs := q.ordered()
	out := make([]RequestSnapshot, len(reqs))
	for i, r := range reqs {
		out[i] = RequestSnapshot{Addr: r.addr, Arrive: r.arrive}
	}
	return out
}

// restoreQueue rebuilds a demand queue from a snapshot, in arrival order,
// against the channel's already-restored bank row state. An address that
// maps to another channel is a corrupt checkpoint.
func (c *Controller) restoreQueue(cc *channelCtl, q *reqQueue, snap []RequestSnapshot) error {
	q.reset()
	for _, rs := range snap {
		loc := c.amap.Map(rs.Addr)
		if loc.Channel != cc.id {
			return fmt.Errorf("memctrl: %w: queued address %#x maps to channel %d, not %d",
				errs.ErrBadSpec, rs.Addr, loc.Channel, cc.id)
		}
		bank := &cc.banks[loc.Bank]
		q.push(loc.Bank, queued{addr: rs.Addr, row: loc.Row, col: loc.Col, arrive: rs.Arrive},
			bank.openValid, bank.openRow)
	}
	return nil
}

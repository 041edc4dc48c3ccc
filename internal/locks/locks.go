// Package locks tracks lock ownership, FIFO wait queues and the contention
// statistics reported in the paper's Tables 4, 6 and 8: number of lock
// transfers, waiters remaining at each transfer, hold times overall and for
// transferring acquisitions, and the latency of each transfer.
//
// The package is protocol-agnostic bookkeeping. The *timing* of a queuing
// lock versus a test&test&set lock — who touches the bus when — is
// orchestrated by the machine package; both protocols drive this Manager.
package locks

import "fmt"

// Algorithm selects the simulated lock implementation.
type Algorithm uint8

const (
	// Queue approximates the queuing locks of Graunke & Thakkar as the
	// paper simulates them: acquire is a single memory access; release is
	// a memory access plus a cache-to-cache hand-off to the first waiter.
	Queue Algorithm = iota
	// TTS is test&test&set: spin on a cached copy; on release the copy is
	// invalidated and all spinners race with re-reads and test&set
	// read-for-ownership transactions through the bus.
	TTS
	// QueueExact is the true Graunke-Thakkar queuing lock under the
	// Illinois protocol, with the two bus transactions the paper's
	// approximation omits (§2.4): a second memory access while enqueuing,
	// and — instead of a cache-to-cache hand-off — a memory write to the
	// waiter's spin location followed by the waiter's re-read miss. The
	// paper left verifying this approximation as future work; this
	// implementation answers it.
	QueueExact
	// TTSBackoff is test&set with bounded exponential backoff after a
	// failed acquisition (Anderson's classic remedy for the test&set
	// flurry): spinners delay before re-testing, trading hand-off
	// latency for bus traffic.
	TTSBackoff
)

func (a Algorithm) String() string {
	switch a {
	case Queue:
		return "queue"
	case TTS:
		return "tts"
	case QueueExact:
		return "queue-exact"
	case TTSBackoff:
		return "tts-backoff"
	default:
		return fmt.Sprintf("Algorithm(%d)", uint8(a))
	}
}

// ParseAlgorithm returns the algorithm whose String is name: the inverse of
// String over the defined algorithms.
func ParseAlgorithm(name string) (Algorithm, error) {
	for a := Queue; a <= TTSBackoff; a++ {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown lock %q (want queue, tts, queue-exact, tts-backoff)", name)
}

// IsQueue reports whether the algorithm uses FIFO queue-based hand-off.
func (a Algorithm) IsQueue() bool { return a == Queue || a == QueueExact }

// IsTTS reports whether the algorithm is a test&set variant.
func (a Algorithm) IsTTS() bool { return a == TTS || a == TTSBackoff }

// NoOwner marks a free lock.
const NoOwner = -1

type lockState struct {
	addr    uint32
	owner   int
	waiters []int // FIFO arrival order

	acquiredAt uint64 // when the current owner got the lock
	freedAt    uint64 // when the last release completed
	freedValid bool
	handoff    bool // release decided a transfer; grant pending

	acqs       uint64
	transfers  uint64
	holdCycles uint64

	// Per-lock contention detail, mirroring the aggregate Stats fields so
	// the what-if replay service can diff contention lock by lock.
	waitersAtTransfer  uint64
	transferWaitCycles uint64
	transferHoldCycles uint64

	arrival map[int]uint64 // audit: waiter -> global arrival sequence
}

// Stats aggregates contention statistics across all locks of a program run.
type Stats struct {
	Acquisitions uint64
	HoldCycles   uint64 // Σ hold time over all completed acquisitions

	Transfers          uint64 // releases handed to a waiting processor
	WaitersAtTransfer  uint64 // Σ waiters still queued after each transfer
	TransferHoldCycles uint64 // Σ hold time of acquisitions released as transfers
	TransferWaitCycles uint64 // Σ (acquire time − free time) per transfer
	MaxWaiters         int
	WaiterHistogram    [17]uint64 // waiters-at-transfer distribution, capped
}

// AvgHold returns the mean hold time per acquisition, in cycles.
func (s *Stats) AvgHold() float64 {
	if s.Acquisitions == 0 {
		return 0
	}
	return float64(s.HoldCycles) / float64(s.Acquisitions)
}

// AvgWaitersAtTransfer returns the paper's "Waiters at Transfer" metric:
// the mean number of processors still waiting after a released lock has
// been acquired by the first waiter.
func (s *Stats) AvgWaitersAtTransfer() float64 {
	if s.Transfers == 0 {
		return 0
	}
	return float64(s.WaitersAtTransfer) / float64(s.Transfers)
}

// AvgTransferHold returns the mean hold time of acquisitions whose release
// handed the lock to a waiter (the transfer-lock "Time held" column).
func (s *Stats) AvgTransferHold() float64 {
	if s.Transfers == 0 {
		return 0
	}
	return float64(s.TransferHoldCycles) / float64(s.Transfers)
}

// AvgTransferTime returns the mean latency from a lock becoming free to its
// acquisition by the next owner — the ~1.2-1.5 cycle (queuing) versus
// ~21-25 cycle (T&T&S) figure of §3.2.
func (s *Stats) AvgTransferTime() float64 {
	if s.Transfers == 0 {
		return 0
	}
	return float64(s.TransferWaitCycles) / float64(s.Transfers)
}

// Manager tracks every lock of one simulated machine run.
type Manager struct {
	locks map[uint32]*lockState
	stats Stats

	audit      bool
	arrivalSeq uint64
	auditErrs  []error
}

// NewManager returns an empty lock manager.
func NewManager() *Manager {
	return &Manager{locks: make(map[uint32]*lockState)}
}

// Stats returns the running statistics.
func (m *Manager) Stats() *Stats { return &m.stats }

func (m *Manager) lock(id uint32) *lockState {
	ls, ok := m.locks[id]
	if !ok {
		ls = &lockState{owner: NoOwner}
		m.locks[id] = ls
	}
	return ls
}

// Owner returns the current owner of lock id, or NoOwner.
func (m *Manager) Owner(id uint32) int {
	if ls, ok := m.locks[id]; ok {
		return ls.owner
	}
	return NoOwner
}

// Waiters returns the number of processors queued on lock id.
func (m *Manager) Waiters(id uint32) int {
	if ls, ok := m.locks[id]; ok {
		return len(ls.waiters)
	}
	return 0
}

// Addr returns the lock word address recorded for id.
func (m *Manager) Addr(id uint32) uint32 {
	if ls, ok := m.locks[id]; ok {
		return ls.addr
	}
	return 0
}

// Request registers that cpu wants lock id (its acquire access has reached
// the decision point). If the lock is free with no queued waiters and no
// pending hand-off, cpu becomes the owner immediately and Request returns
// true. Otherwise cpu is appended to the FIFO queue and must wait for Grant
// (queuing locks) or win a TryAcquireRace (T&T&S).
func (m *Manager) Request(cpu int, id, addr uint32, now uint64) bool {
	ls := m.lock(id)
	ls.addr = addr
	if ls.owner == NoOwner && len(ls.waiters) == 0 && !ls.handoff {
		m.acquire(ls, cpu, now, false)
		return true
	}
	for _, w := range ls.waiters {
		if w == cpu {
			panic(fmt.Sprintf("locks: cpu %d queued twice on lock %d", cpu, id))
		}
	}
	if ls.owner == cpu {
		panic(fmt.Sprintf("locks: cpu %d re-requesting lock %d it already owns", cpu, id))
	}
	ls.waiters = append(ls.waiters, cpu)
	m.noteArrival(ls, cpu)
	if len(ls.waiters) > m.stats.MaxWaiters {
		m.stats.MaxWaiters = len(ls.waiters)
	}
	return false
}

func (m *Manager) acquire(ls *lockState, cpu int, now uint64, viaTransfer bool) {
	ls.owner = cpu
	ls.acquiredAt = now
	ls.acqs++
	m.stats.Acquisitions++
	if viaTransfer {
		ls.transfers++
		m.stats.Transfers++
		remaining := len(ls.waiters)
		m.stats.WaitersAtTransfer += uint64(remaining)
		ls.waitersAtTransfer += uint64(remaining)
		h := remaining
		if h >= len(m.stats.WaiterHistogram) {
			h = len(m.stats.WaiterHistogram) - 1
		}
		m.stats.WaiterHistogram[h]++
		if ls.freedValid && now >= ls.freedAt {
			m.stats.TransferWaitCycles += now - ls.freedAt
			ls.transferWaitCycles += now - ls.freedAt
		}
		ls.handoff = false
	}
}

// Release records that cpu releases lock id at time now (the release access
// has been performed). It returns the first waiter, if any; the machine
// grants the lock to that processor — immediately for queuing locks, or
// after the test&set race resolves for T&T&S. The lock is free but
// reserved-for-transfer until Grant or TryAcquireRace succeeds.
func (m *Manager) Release(cpu int, id uint32, now uint64) (next int, hasNext bool) {
	ls, ok := m.locks[id]
	if !ok || ls.owner != cpu {
		panic(fmt.Sprintf("locks: cpu %d releasing lock %d it does not own", cpu, id))
	}
	hold := now - ls.acquiredAt
	m.stats.HoldCycles += hold
	ls.holdCycles += hold
	ls.owner = NoOwner
	ls.freedAt = now
	ls.freedValid = true
	if len(ls.waiters) == 0 {
		return NoOwner, false
	}
	// This release is a transfer: the hold time that just ended belongs
	// to a transferring acquisition.
	m.stats.TransferHoldCycles += hold
	ls.transferHoldCycles += hold
	ls.handoff = true
	return ls.waiters[0], true
}

// Grant hands lock id to cpu, which must be the head of the wait queue.
// Used by the queuing-lock protocol where hand-off is FIFO and immediate.
func (m *Manager) Grant(cpu int, id uint32, now uint64) {
	ls, ok := m.locks[id]
	if !ok || !ls.handoff || len(ls.waiters) == 0 || ls.waiters[0] != cpu {
		panic(fmt.Sprintf("locks: invalid Grant of lock %d to cpu %d", id, cpu))
	}
	m.auditGrant(ls, id, cpu)
	ls.waiters = ls.waiters[1:]
	m.noteDeparture(ls, cpu)
	m.acquire(ls, cpu, now, true)
}

// TryAcquireRace resolves a test&set attempt by cpu at time now: it wins if
// the lock is free, regardless of queue position (T&T&S is unfair). Losers
// keep spinning. A winning cpu is removed from the wait queue if present.
func (m *Manager) TryAcquireRace(cpu int, id uint32, now uint64) bool {
	ls := m.lock(id)
	if ls.owner != NoOwner {
		return false
	}
	// Remove cpu from the queue if it was waiting.
	wasWaiting := false
	for i, w := range ls.waiters {
		if w == cpu {
			ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
			m.noteDeparture(ls, cpu)
			wasWaiting = true
			break
		}
	}
	// A transfer is a release followed by acquisition by a processor that
	// was waiting when the release happened.
	viaTransfer := ls.handoff && wasWaiting
	if !viaTransfer {
		ls.handoff = false
	}
	m.acquire(ls, cpu, now, viaTransfer)
	return true
}

// HeldBy returns the ids of all locks currently owned by cpu, for deadlock
// diagnostics and end-of-run assertions.
func (m *Manager) HeldBy(cpu int) []uint32 {
	var ids []uint32
	for id, ls := range m.locks {
		if ls.owner == cpu {
			ids = append(ids, id)
		}
	}
	return ids
}

// PerLock returns per-lock acquisition and transfer counts for analyses
// like the hot-lock report.
func (m *Manager) PerLock() map[uint32]LockInfo {
	out := make(map[uint32]LockInfo, len(m.locks))
	for id, ls := range m.locks {
		out[id] = LockInfo{
			Addr:               ls.addr,
			Acquisitions:       ls.acqs,
			Transfers:          ls.transfers,
			HoldCycles:         ls.holdCycles,
			WaitersAtTransfer:  ls.waitersAtTransfer,
			TransferWaitCycles: ls.transferWaitCycles,
			TransferHoldCycles: ls.transferHoldCycles,
		}
	}
	return out
}

// LockInfo summarises one lock's activity. The transfer fields are the
// per-lock decomposition of the matching Stats aggregates: summed over all
// locks they reproduce the program-wide numbers exactly.
type LockInfo struct {
	Addr         uint32
	Acquisitions uint64
	Transfers    uint64
	HoldCycles   uint64 // completed acquisitions only

	WaitersAtTransfer  uint64 // Σ waiters still queued after each transfer of this lock
	TransferWaitCycles uint64 // Σ (acquire time − free time) per transfer of this lock
	TransferHoldCycles uint64 // Σ hold time of this lock's transferring acquisitions
}

// AvgWaitersAtTransfer is the per-lock "Waiters at Transfer" metric.
func (l LockInfo) AvgWaitersAtTransfer() float64 {
	if l.Transfers == 0 {
		return 0
	}
	return float64(l.WaitersAtTransfer) / float64(l.Transfers)
}

// AvgTransferWait is the per-lock mean transfer latency in cycles.
func (l LockInfo) AvgTransferWait() float64 {
	if l.Transfers == 0 {
		return 0
	}
	return float64(l.TransferWaitCycles) / float64(l.Transfers)
}

// AvgTransferHold is the per-lock mean hold time of transferred
// acquisitions in cycles.
func (l LockInfo) AvgTransferHold() float64 {
	if l.Transfers == 0 {
		return 0
	}
	return float64(l.TransferHoldCycles) / float64(l.Transfers)
}

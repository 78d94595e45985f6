package cluster

import (
	"sort"
	"sync"
	"time"
)

// JoinRequest is a worker's heartbeat body: POST /v1/cluster/join.
// The first heartbeat registers the worker; later ones refresh its
// liveness. Re-joining after a presumed death reactivates the member.
type JoinRequest struct {
	// ID is the worker's stable node identity (ring placement key).
	ID string `json:"id"`
	// Base is the worker's advertised API root, e.g. "http://10.0.0.7:8081".
	Base string `json:"base"`
	// QueueDepth is the worker's queued-plus-running job count at heartbeat
	// time — the load signal behind the coordinator's load-aware placement.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// JoinResponse acknowledges a heartbeat and carries the coordinator's
// current view of the fleet, which workers mirror into their own ring for
// peer-cache lookups.
type JoinResponse struct {
	// IntervalSec is the heartbeat cadence the coordinator expects.
	IntervalSec float64 `json:"interval_sec"`
	// Members is the full membership table, dead entries included (alive
	// distinguishes them), so a worker can see churn it missed.
	Members []MemberInfo `json:"members"`
}

// MemberInfo is the public view of one fleet member, also served by
// GET /v1/cluster.
type MemberInfo struct {
	ID       string    `json:"id"`
	Base     string    `json:"base"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"last_seen"`
	// QueueDepth is the load the member reported on its last heartbeat.
	QueueDepth int `json:"queue_depth,omitempty"`
}

// member is the coordinator's record of one worker. The down channel is
// closed when the worker is declared dead, waking every placement
// goroutine streaming from it; a re-join replaces it with a fresh one.
type member struct {
	id       string
	base     string
	lastSeen time.Time
	alive    bool
	depth    int // queued+running jobs reported on the last heartbeat
	down     chan struct{}
}

// membership is the coordinator's worker table plus the placement ring.
// The ring holds only alive members; the table keeps dead ones so the
// topology endpoint can report churn.
type membership struct {
	mu      sync.Mutex
	ring    *Ring
	members map[string]*member
}

func newMembership(ringReplicas int) *membership {
	return &membership{ring: NewRing(ringReplicas), members: make(map[string]*member)}
}

// upsert registers or refreshes a member from a heartbeat. It returns
// whether this heartbeat (re)activated the member — i.e. it was new or
// previously declared dead.
func (m *membership) upsert(id, base string, depth int, now time.Time) (joined bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[id]
	if !ok || !mem.alive {
		m.members[id] = &member{id: id, base: base, lastSeen: now, alive: true, depth: depth, down: make(chan struct{})}
		m.ring.Add(id)
		return true
	}
	mem.lastSeen = now
	mem.base = base
	mem.depth = depth
	return false
}

// depthOf returns the load a live member last reported. ok is false for
// unknown or dead members (the ring walk then keeps their original rank).
func (m *membership) depthOf(id string) (int, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem := m.members[id]
	if mem == nil || !mem.alive {
		return 0, false
	}
	return mem.depth, true
}

// sweep declares members dead whose last heartbeat is older than timeout:
// they leave the ring and their down channel closes, aborting every
// in-flight placement on them so the scheduler can retry elsewhere.
// Returns the IDs declared dead this pass.
func (m *membership) sweep(now time.Time, timeout time.Duration) []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dead []string
	for id, mem := range m.members {
		if mem.alive && now.Sub(mem.lastSeen) > timeout {
			mem.alive = false
			m.ring.Remove(id)
			close(mem.down)
			dead = append(dead, id)
		}
	}
	return dead
}

// get returns the base URL and down channel of live member id; ok is
// false for unknown or dead members. Both are read under the lock: every
// heartbeat rewrites the member's record.
func (m *membership) get(id string) (base string, down <-chan struct{}, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem := m.members[id]
	if mem == nil || !mem.alive {
		return "", nil, false
	}
	return mem.base, mem.down, true
}

// alive counts live members.
func (m *membership) alive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, mem := range m.members {
		if mem.alive {
			n++
		}
	}
	return n
}

// snapshot returns the full member table sorted by ID.
func (m *membership) snapshot() []MemberInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberInfo, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, MemberInfo{ID: mem.id, Base: mem.base, Alive: mem.alive, LastSeen: mem.lastSeen, QueueDepth: mem.depth})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

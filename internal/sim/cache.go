package sim

// LineSize is the cache line size in bytes throughout the hierarchy.
const LineSize = 64

// Ways is the set associativity of every R-DCache bank.
const Ways = 4

// line is one cache line's bookkeeping state in 8 bytes, so a 4-way set
// is 32 bytes and never straddles a host cache line. The tag word carries
// the tag in its low bits and the valid, dirty and prefetched state bits
// in its top three; a way then matches with one compare of the masked word.
type line struct {
	tag uint32 // tag | lineValid | lineDirty | linePrefetched
	lru uint32
}

// State bits of line.tag. A machine's tags are at most 26 bits (32-bit
// byte addresses over 64-byte lines); Bank rejects a fill whose tag would
// reach the state bits.
const (
	lineValid      = 1 << 31
	lineDirty      = 1 << 30
	linePrefetched = 1 << 29 // filled by prefetch, not yet demanded
	tagMask        = linePrefetched - 1
	matchMask      = lineValid | tagMask
)

// cacheSet is the ways of one set.
type cacheSet [Ways]line

// find returns the way holding tag, or -1. Tags are unique within a set,
// so at most one way matches, and summing way+1 over the matching ways
// gives the match plus one with no branch per way: a hit's way is as
// unpredictable as the trace, and a mispredicted branch per probe cost more
// than the arithmetic. x^want is zero exactly on a match, and only a zero x
// wraps x-1 to set bit 63.
func (s *cacheSet) find(tag uint32) int {
	want := tag | lineValid
	w := 0
	for i := range s {
		w += (i + 1) * int((uint64(s[i].tag&matchMask^want)-1)>>63)
	}
	return w - 1
}

// victim returns the way a fill replaces: the first invalid way, else the
// least recently used one (the first of equals). An invalid way ranks 0
// and a valid one its tick plus one, so one branch-free minimum finds it.
func (s *cacheSet) victim() int {
	v, best := 0, s[0].rank()
	for i := 1; i < Ways; i++ {
		if r := s[i].rank(); r < best {
			v, best = i, r
		}
	}
	return v
}

// rank orders ways for replacement: 0 for an invalid way, lru+1 otherwise
// (the negated valid bit masks all or nothing).
func (l *line) rank() uint64 {
	return (uint64(l.lru) + 1) & -uint64(l.tag/lineValid)
}

// divisor splits values by a fixed count: with a shift and a mask when the
// count is a power of two, by integer division otherwise. Division is the
// most expensive instruction on the per-access path, so every split there
// goes through one of these.
type divisor struct {
	n     uint32
	mask  uint32
	shift uint8
	pow2  bool
}

func newDivisor(n int) divisor {
	d := divisor{n: uint32(n), pow2: n&(n-1) == 0}
	if d.pow2 {
		d.mask = uint32(n) - 1
		for 1<<d.shift < n {
			d.shift++
		}
	}
	return d
}

// divmod returns x / n and x % n.
func (d divisor) divmod(x uint32) (q, r uint32) {
	if d.pow2 {
		return x >> d.shift, x & d.mask
	}
	return x / d.n, x % d.n
}

// join is the inverse of divmod: q*n + r.
func (d divisor) join(q, r uint32) uint32 {
	if d.pow2 {
		return q<<d.shift | r
	}
	return q*d.n + r
}

// Bank models one reconfigurable data-cache (R-DCache) bank: set-associative
// with LRU replacement, exact tags, dirty bits and resizable capacity
// (Section 3.2.2: each logical bank is a set of physical sub-banks, so
// capacity increases keep resident lines).
type Bank struct {
	lines []cacheSet
	// sets splits a line address into its tag and set index: shift and
	// mask for every standard capacity, div/mod for any other.
	sets divisor
	tick uint32

	// nValid/nDirty track resident and dirty line counts incrementally so
	// Occupancy and DirtyLines are O(1) per epoch instead of a full scan of
	// the line array.
	nValid int
	nDirty int

	// Per-epoch counters, reset by the machine after telemetry (Table 2).
	Accesses   int
	Misses     int
	Prefetches int // prefetch fills issued
	PrefUseful int // prefetched lines later hit by a demand access
}

// NewBank creates a bank of the given capacity in bytes.
func NewBank(capacityBytes int) *Bank {
	b := &Bank{}
	b.init(capacityBytes)
	return b
}

func (b *Bank) init(capacityBytes int) {
	sets := max(capacityBytes/(LineSize*Ways), 1)
	b.lines = make([]cacheSet, sets)
	b.sets = newDivisor(sets)
	b.tick = 0
	b.nValid, b.nDirty = 0, 0
}

// CapacityBytes returns the current bank capacity.
func (b *Bank) CapacityBytes() int { return len(b.lines) * Ways * LineSize }

// set returns the set holding lineAddr and the line's tag.
func (b *Bank) set(lineAddr uint32) (*cacheSet, uint32) {
	tag, s := b.sets.divmod(lineAddr)
	return &b.lines[s], tag
}

// Lookup probes the bank without counting a demand access. It reports
// whether the line is resident.
func (b *Bank) Lookup(lineAddr uint32) bool {
	ws, tag := b.set(lineAddr)
	return ws.find(tag) >= 0
}

// hit applies a demand hit to l: LRU update, the dirty bit for a store,
// and usefulness accounting for the first demand of a prefetched line.
func (b *Bank) hit(l *line, store bool) (prefHit bool) {
	if l.tag&linePrefetched != 0 {
		b.PrefUseful++
		l.tag &^= linePrefetched
		prefHit = true
	}
	l.lru = b.tick
	if store && l.tag&lineDirty == 0 {
		l.tag |= lineDirty
		b.nDirty++
	}
	return prefHit
}

// Access performs a demand access to lineAddr. On a hit it updates LRU and
// the dirty bit; on a miss it reports hit=false and the caller must Insert
// the line after fetching it from the next level. prefHit reports that the
// hit consumed a prefetched line for the first time, which prefetch
// policies use to extend a run.
func (b *Bank) Access(lineAddr uint32, store bool) (hit, prefHit bool) {
	b.Accesses++
	b.tick++
	ws, tag := b.set(lineAddr)
	if w := ws.find(tag); w >= 0 {
		return true, b.hit(&ws[w], store)
	}
	b.Misses++
	return false, false
}

// AccessFill is the fused demand-access path of the hot loop: a miss fills
// the line in the same call (the demand fill the caller would otherwise
// perform with a separate Insert), saving a second set scan. Counter and
// LRU-tick semantics are bit-identical to Access followed by
// Insert(lineAddr, store, false) on the miss path: the access bumps the
// tick once, the fill bumps it again, and the victim is chosen under the
// post-fill tick, exactly as the split sequence did.
func (b *Bank) AccessFill(lineAddr uint32, store bool) (hit, prefHit bool, ev Evicted) {
	b.Accesses++
	b.tick++
	ws, tag := b.set(lineAddr)
	if w := ws.find(tag); w >= 0 {
		return true, b.hit(&ws[w], store), Evicted{}
	}
	b.Misses++
	// Demand fill. The set was just scanned and the line is absent, so the
	// resident-rescan of Insert is skipped; tick bumps again exactly as the
	// standalone Insert would.
	b.tick++
	return false, false, b.replace(&ws[ws.victim()], lineAddr, tag, store, false)
}

// PrefetchFill is the fused prefetch path: it fills lineAddr as a
// prefetched line unless it is already resident, in one set scan. It is
// bit-identical to
//
//	if !b.Lookup(lineAddr) { ev = b.Insert(lineAddr, false, true) }
//
// a resident line is left as it is (no tick, no LRU update) and filled
// reports whether the fill happened.
func (b *Bank) PrefetchFill(lineAddr uint32) (filled bool, ev Evicted) {
	ws, tag := b.set(lineAddr)
	if ws.find(tag) >= 0 {
		return false, Evicted{}
	}
	b.tick++
	return true, b.replace(&ws[ws.victim()], lineAddr, tag, false, true)
}

// Evicted describes a line displaced from a bank.
type Evicted struct {
	LineAddr uint32
	Dirty    bool
	Valid    bool
}

// Insert fills lineAddr into the bank (after a miss or as a prefetch) and
// returns the displaced victim, if any. prefetched marks prefetch fills for
// usefulness accounting; dirty marks write-allocated or written-back lines.
func (b *Bank) Insert(lineAddr uint32, dirty, prefetched bool) Evicted {
	b.tick++
	ws, tag := b.set(lineAddr)
	// Already resident (e.g. racing prefetch): just update.
	if w := ws.find(tag); w >= 0 {
		l := &ws[w]
		if dirty && l.tag&lineDirty == 0 {
			l.tag |= lineDirty
			b.nDirty++
		}
		l.lru = b.tick
		return Evicted{}
	}
	return b.replace(&ws[ws.victim()], lineAddr, tag, dirty, prefetched)
}

// replace overwrites the victim way v with a fresh line and maintains the
// incremental valid/dirty counts. v lies in the set lineAddr maps to and
// tag is lineAddr's tag; the caller has already bumped the tick.
func (b *Bank) replace(v *line, lineAddr, tag uint32, dirty, prefetched bool) Evicted {
	if tag > tagMask {
		panic("sim: line address too large for the bank's tag bits")
	}
	ev := Evicted{}
	if v.tag&lineValid != 0 {
		_, s := b.sets.divmod(lineAddr)
		ev = Evicted{LineAddr: b.sets.join(v.tag&tagMask, s), Dirty: v.tag&lineDirty != 0, Valid: true}
		if ev.Dirty {
			b.nDirty--
		}
	} else {
		b.nValid++
	}
	w := tag | lineValid
	if dirty {
		w |= lineDirty
		b.nDirty++
	}
	if prefetched {
		w |= linePrefetched
		b.Prefetches++
	}
	*v = line{tag: w, lru: b.tick}
	return ev
}

// Occupancy returns the fraction of valid lines, the "cache occupancy"
// counter of Table 2. O(1): the count is maintained incrementally.
func (b *Bank) Occupancy() float64 {
	return float64(b.nValid) / float64(len(b.lines)*Ways)
}

// DirtyLines returns the number of dirty resident lines. O(1): the count
// is maintained incrementally.
func (b *Bank) DirtyLines() int { return b.nDirty }

// Flush invalidates the whole bank and returns the addresses of the dirty
// lines that must be written back to the next level.
func (b *Bank) Flush() []uint32 {
	var dirty []uint32
	for s := range b.lines {
		for _, l := range &b.lines[s] {
			if l.tag&(lineValid|lineDirty) == lineValid|lineDirty {
				dirty = append(dirty, b.sets.join(l.tag&tagMask, uint32(s)))
			}
		}
	}
	clear(b.lines)
	b.nValid, b.nDirty = 0, 0
	return dirty
}

// Resize changes the bank capacity. Growing keeps resident lines (they are
// re-indexed into the larger structure, matching the sub-banked design of
// Section 3.2.2, which makes capacity increases super-fine). Shrinking
// keeps what fits and returns dirty casualties for writeback.
func (b *Bank) Resize(capacityBytes int) (dirtyWB []uint32) {
	if capacityBytes == b.CapacityBytes() {
		return nil
	}
	old, oldSets := b.lines, b.sets
	b.init(capacityBytes)
	for s := range old {
		for _, l := range &old[s] {
			if l.tag&lineValid == 0 {
				continue
			}
			addr := oldSets.join(l.tag&tagMask, uint32(s))
			ev := b.Insert(addr, l.tag&lineDirty != 0, false)
			if ev.Valid && ev.Dirty {
				dirtyWB = append(dirtyWB, ev.LineAddr)
			}
		}
	}
	return dirtyWB
}

// ResetCounters zeroes the per-epoch counters after telemetry, matching the
// hardware counters that "are reset after they are queried" (Section 3.3).
func (b *Bank) ResetCounters() {
	b.Accesses, b.Misses, b.Prefetches, b.PrefUseful = 0, 0, 0, 0
}

// prefEntry is one stride-prefetcher table entry.
type prefEntry struct {
	pc     uint16
	last   uint32
	stride int32
	conf   uint8
}

// prefTableSize is the per-bank PC-indexed table size.
const prefTableSize = 64

// Prefetcher is the PC-indexed stride prefetcher attached to each cache
// layer (Section 3.2.5). Degree 0 disables it.
type Prefetcher struct {
	table [prefTableSize]prefEntry
	// buf is the reusable output buffer of Observe. Prefetch issue used to
	// be the simulator's dominant allocation site (one slice per confident
	// miss, hundreds of thousands per recording), which throttled parallel
	// sweeps through GC assist; reusing one buffer per prefetcher removes
	// the per-access allocation entirely.
	buf []uint32
}

// Observe records a demand access by static instruction pc to lineAddr and
// returns the line addresses to prefetch (up to degree lines ahead) once a
// stable stride has been established. Repeated accesses to the same line
// (sub-line strides) do not perturb the learned stride.
//
// The returned slice aliases an internal buffer that is overwritten by the
// next Observe call on the same Prefetcher: consume it before re-observing
// (the replay loops issue the fills immediately, so this is free).
func (p *Prefetcher) Observe(pc uint16, lineAddr uint32, degree int) []uint32 {
	e := &p.table[pc%prefTableSize]
	if e.pc != pc {
		*e = prefEntry{pc: pc, last: lineAddr}
		return nil
	}
	if lineAddr == e.last {
		return nil
	}
	stride := int32(lineAddr) - int32(e.last)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.stride = stride
	}
	e.last = lineAddr
	if degree <= 0 || e.conf < 2 {
		return nil
	}
	out := p.buf[:0]
	a := int64(lineAddr)
	for i := 1; i <= degree; i++ {
		a += int64(e.stride)
		if a < 0 {
			break
		}
		out = append(out, uint32(a))
	}
	p.buf = out
	return out
}

// Reset clears the prefetcher state (on reconfiguration of aggressiveness).
func (p *Prefetcher) Reset() { p.table = [prefTableSize]prefEntry{} }

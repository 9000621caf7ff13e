package sim

import "math/bits"

// Four-level hierarchical timer wheel, the engine's event queue.
//
// Ticks are one nanosecond — the engine's native resolution — so a level-0
// slot holds events for exactly one timestamp and a FIFO slot list is
// automatically in (at, seq) order: no sorting happens anywhere. Each level
// has 256 slots; level L buckets bits [8L, 8L+8) of the timestamp, giving a
// horizon of 2^32 ns (~4.3 s) past the cursor. The rare timer beyond that
// (TIME_WAIT, fully backed-off retransmits) parks in an overflow slice in
// scheduling order and is redistributed when the cursor reaches its window.
// A cancelled overflow event stays in the slice, marked, until the dead
// outnumber the live; then the slice is compacted in place, so a timer
// re-armed past the horizon again and again keeps it at most twice its
// live size.
//
// Invariant: every resident event's timestamp t satisfies t >= cur, and t
// lives at the lowest level whose window contains both t and cur (events
// sharing cur's 256ns window are in level 0, and so on). Inserts place by
// window, and the cursor only enters a new window through cascade (which
// re-files that window's events first), so a slot is always fully populated
// before the level-0 scan can reach it. Occupancy bitmaps make the scans a
// handful of word tests.
//
// An event is re-filed only when it has to be (Varghese and Lauck's point).
// When the first occupied slot above level 0 holds a lone event, that event
// is the earliest, so advance moves the cursor onto its timestamp and the
// engine fires it from the slot it is in, with no cascade into level 0. The
// event then sits, for that moment only, in the cursor's own slot at its
// level, which is otherwise always empty: advance returns it and the engine
// unlinks it before anything else reads or changes the wheel, so every other
// path keeps the invariant as stated.
//
// The cursor never passes the engine clock: advance moves it only as far as
// a caller's limit, and claim only to the timestamp it fires, so outside a
// firing cur <= now. Any At(t >= now) then satisfies t >= cur and is a plain
// insert, whatever horizon the last RunUntil stopped at.
type wheel struct {
	cur      uint64
	slots    [4][256]wslot
	occupied [4][4]uint64
	overflow []*Event
	dead     int // cancelled events still in overflow
}

// wslot is a doubly-linked FIFO of events, linked through Event.next/prev.
type wslot struct{ head, tail *Event }

// insert files an event at the lowest level whose window contains both the
// event and the cursor, or into overflow past the horizon. Callers ensure
// ev.at >= cur.
func (w *wheel) insert(ev *Event) {
	t := uint64(ev.at)
	switch {
	case t>>8 == w.cur>>8:
		w.link(0, uint8(t), ev)
	case t>>16 == w.cur>>16:
		w.link(1, uint8(t>>8), ev)
	case t>>24 == w.cur>>24:
		w.link(2, uint8(t>>16), ev)
	case t>>32 == w.cur>>32:
		w.link(3, uint8(t>>24), ev)
	default:
		ev.state = evOverflow
		w.overflow = append(w.overflow, ev)
	}
}

func (w *wheel) link(level int8, slot uint8, ev *Event) {
	ev.state = evWheel
	ev.level, ev.slot = level, slot
	s := &w.slots[level][slot]
	ev.prev, ev.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = ev
	} else {
		s.head = ev
		w.occupied[level][slot>>6] |= 1 << (slot & 63)
	}
	s.tail = ev
}

// unlink removes an event from its slot in O(1).
func (w *wheel) unlink(ev *Event) {
	s := &w.slots[ev.level][ev.slot]
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		s.head = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	} else {
		s.tail = ev.prev
	}
	if s.head == nil {
		w.occupied[ev.level][ev.slot>>6] &^= 1 << (ev.slot & 63)
	}
	ev.next, ev.prev = nil, nil
}

// firstFrom returns the smallest occupied slot index >= from at the given
// level, or -1 when the rest of the level is empty.
func (w *wheel) firstFrom(level, from int) int {
	if from > 255 {
		return -1
	}
	word := from >> 6
	mask := w.occupied[level][word] &^ (1<<(uint(from)&63) - 1)
	for {
		if mask != 0 {
			return word<<6 + bits.TrailingZeros64(mask)
		}
		word++
		if word == 4 {
			return -1
		}
		mask = w.occupied[level][word]
	}
}

// takeSlot detaches and returns a slot's list head, emptying the slot.
func (w *wheel) takeSlot(level int8, slot uint8) *Event {
	s := &w.slots[level][slot]
	head := s.head
	s.head, s.tail = nil, nil
	w.occupied[level][slot>>6] &^= 1 << (slot & 63)
	return head
}

// window returns the first occupied slot past the cursor's own at a level
// above 0, and the timestamp its window starts at; slot is -1 when the rest
// of the level is empty. The cursor's own slot at that level is always
// empty by the placement invariant.
func (w *wheel) window(level int) (slot int, base uint64) {
	shift := 8 * uint(level)
	slot = w.firstFrom(level, int(w.cur>>shift&255)+1)
	if slot < 0 {
		return -1, 0
	}
	return slot, w.cur>>(shift+8)<<(shift+8) | uint64(slot)<<shift
}

// advance moves the cursor toward the earliest event, never past limit, and
// returns that event if it is due at or before limit, else nil. It enters
// (and cascades) a higher-level window only if the window starts at or
// before limit. The event is the head of the level-0 slot at cur, or a lone
// event still in its higher-level slot with cur on its timestamp; either
// way the caller unlinks it at once.
//
//qpip:hotpath
func (w *wheel) advance(e *Engine, limit uint64) *Event {
	for {
		if s := w.firstFrom(0, int(w.cur&255)); s >= 0 {
			t := w.cur&^255 | uint64(s)
			if t > limit {
				return nil
			}
			w.cur = t
			return w.slots[0][s].head
		}
		level := 1
		for ; level < 4; level++ {
			if s, base := w.window(level); s >= 0 {
				if base > limit {
					return nil
				}
				if ev := w.slots[level][s].head; ev == w.slots[level][s].tail {
					if uint64(ev.at) > limit {
						return nil
					}
					w.cur = uint64(ev.at)
					return ev
				}
				w.cur = base
				w.cascade(int8(level), uint8(s))
				break
			}
		}
		if level == 4 && !w.refillFromOverflow(e, limit) {
			return nil
		}
	}
}

// claim reports whether an event due at t, scheduled now, would be the next
// to fire by limit: t <= limit, and every resident event is due later (a
// resident due at t was scheduled first, so it would fire first). The
// caller then fires that event without filing it, and claim has moved the
// cursor to t where the placement invariant allows. Two answers are a safe
// no rather than exact, because finding the earliest event would take a
// scan: t lies past the wheel's horizon, where overflow may hold anything,
// or t falls inside the first occupied higher-level window and that slot
// holds more than one event.
//
//qpip:hotpath
func (w *wheel) claim(t, limit uint64) bool {
	if t > limit || t>>32 != w.cur>>32 {
		return false
	}
	if s := w.firstFrom(0, int(w.cur&255)); s >= 0 {
		if t >= w.cur&^255|uint64(s) {
			return false
		}
		w.cur = t
		return true
	}
	for level := 1; level < 4; level++ {
		if s, base := w.window(level); s >= 0 {
			if t < base {
				w.cur = t
				return true
			}
			// The cursor stays put: moving it into the slot's window
			// would leave the slot's event on the wrong level.
			sl := &w.slots[level][s]
			return sl.head == sl.tail && t < uint64(sl.head.at)
		}
	}
	// Only overflow is left, and it holds later top-level windows only.
	w.cur = t
	return true
}

// next reports the earliest live timestamp without moving the cursor: the
// level-0 bitmap hit, else the minimum over the first occupied higher-level
// slot (its list is in scheduling order, not time order), else the minimum
// over live overflow events. It reports false when nothing is live.
func (w *wheel) next() (uint64, bool) {
	if s := w.firstFrom(0, int(w.cur&255)); s >= 0 {
		return w.cur&^255 | uint64(s), true
	}
	for level := 1; level < 4; level++ {
		if s, _ := w.window(level); s >= 0 {
			earliest := ^uint64(0)
			for ev := w.slots[level][s].head; ev != nil; ev = ev.next {
				earliest = min(earliest, uint64(ev.at))
			}
			return earliest, true
		}
	}
	earliest, found := ^uint64(0), false
	for _, ev := range w.overflow {
		if ev.state != evCanceled {
			earliest, found = min(earliest, uint64(ev.at)), true
		}
	}
	return earliest, found
}

// cascade re-files a higher-level slot's events after the cursor entered the
// slot's window. FIFO order is preserved, so equal-timestamp events keep
// their scheduling order all the way down to level 0.
func (w *wheel) cascade(level int8, slot uint8) {
	for ev := w.takeSlot(level, slot); ev != nil; {
		next := ev.next
		ev.next, ev.prev = nil, nil
		w.insert(ev)
		ev = next
	}
}

// cancelOverflow counts a cancelled overflow event and reaps the slice
// once the dead outnumber the live.
func (w *wheel) cancelOverflow(e *Engine) {
	w.dead++
	if w.dead > len(w.overflow)-w.dead {
		w.reap(e)
	}
}

// reap drops the cancelled events from overflow and recycles them. It
// compacts in place and keeps slice order, which refill relies on for
// same-tick FIFO order.
func (w *wheel) reap(e *Engine) {
	live := w.overflow[:0]
	for _, ev := range w.overflow {
		if ev.state == evCanceled {
			e.recycle(ev)
		} else {
			live = append(live, ev)
		}
	}
	clear(w.overflow[len(live):])
	w.overflow = live
	w.dead = 0
}

// refillFromOverflow reaps cancelled overflow events and, if the earliest
// live one is due by limit, jumps the cursor to its timestamp and moves every
// overflow event inside the cursor's new top-level window into the wheel.
// Setting the cursor to the minimum timestamp itself (rather than a window
// base) keeps all re-filed events at scannable slot indexes. Slice order
// (= scheduling order) is preserved for the rest.
func (w *wheel) refillFromOverflow(e *Engine, limit uint64) bool {
	if w.dead > 0 {
		w.reap(e)
	}
	earliest := ^uint64(0)
	for _, ev := range w.overflow {
		earliest = min(earliest, uint64(ev.at))
	}
	if len(w.overflow) == 0 || earliest > limit {
		return false
	}
	w.cur = earliest
	keep := w.overflow[:0]
	for _, ev := range w.overflow {
		if uint64(ev.at)>>32 == w.cur>>32 {
			w.insert(ev)
		} else {
			keep = append(keep, ev)
		}
	}
	clear(w.overflow[len(keep):])
	w.overflow = keep
	return true
}

package pool

import (
	"math/bits"
	"math/rand/v2"
	"testing"
)

// ringOps drives a Ring[int] and a plain-slice reference queue through
// the same operations, one per byte of ops, and fails on the first
// divergence. The low three bits pick the operation, the high five its
// argument:
//
//	0-3  Push (half the ops, so runs build up and wrap around)
//	4    Pop
//	5    PopBack
//	6    PopN into a dst of arg%8 entries
//	7    Reset when arg is 0, overwrite the front entry via Front when
//	     arg is 1-15, else Reserve(arg-16)
//
// After every op the ring must match the reference, keep every slot
// outside the live window zeroed, and be exactly the smallest power of
// two holding both the most entries live at once and the largest
// reservation since the last Reset. It
// reports how many pushes and how many reservations grew a buffer whose
// live window had wrapped (head not at slot 0), the case where the resize
// must unwrap.
func ringOps(t testing.TB, ops []byte) (wrappedGrows, wrappedReserves int) {
	t.Helper()
	var q Ring[int]
	var ref []int
	next, highWater := 1, 0 // values start at 1 so a zero slot means cleared
	reserved := 0
	for step, b := range ops {
		op, arg := b&7, int(b>>3)
		switch {
		case op <= 3:
			if q.Len() == q.Cap() && q.Cap() > 0 && q.head&q.mask() != 0 {
				wrappedGrows++
			}
			q.Push(next)
			ref = append(ref, next)
			next++
		case op == 4:
			x, ok := q.Pop()
			if ok != (len(ref) > 0) || ok && x != ref[0] {
				t.Fatalf("step %d: Pop = %d, %v; reference %v", step, x, ok, ref)
			}
			if ok {
				ref = ref[1:]
			}
		case op == 5:
			x, ok := q.PopBack()
			if ok != (len(ref) > 0) || ok && x != ref[len(ref)-1] {
				t.Fatalf("step %d: PopBack = %d, %v; reference %v", step, x, ok, ref)
			}
			if ok {
				ref = ref[:len(ref)-1]
			}
		case op == 6:
			dst := make([]int, arg%8)
			n := q.PopN(dst)
			want := min(len(dst), len(ref))
			if n != want {
				t.Fatalf("step %d: PopN(%d) = %d, want %d", step, len(dst), n, want)
			}
			for i := range n {
				if dst[i] != ref[i] {
					t.Fatalf("step %d: PopN entry %d = %d, want %d", step, i, dst[i], ref[i])
				}
			}
			ref = ref[n:]
		case arg == 0:
			q.Reset()
			ref, highWater, reserved = nil, 0, 0
		case arg >= 16:
			if arg-16 > q.Cap() && q.Len() > 0 && q.head&q.mask() != 0 {
				wrappedReserves++
			}
			q.Reserve(arg - 16)
			reserved = max(reserved, arg-16)
		default:
			if f := q.Front(); f != nil {
				*f = -next
				ref[0] = -next
				next++
			} else if len(ref) > 0 {
				t.Fatalf("step %d: Front = nil with %d queued", step, len(ref))
			}
		}
		highWater = max(highWater, len(ref))
		checkRing(t, step, &q, ref, max(highWater, reserved))
	}
	return wrappedGrows, wrappedReserves
}

func checkRing(t testing.TB, step int, q *Ring[int], ref []int, highWater int) {
	// highWater is the larger of the most entries live at once and the
	// largest reservation.
	t.Helper()
	if q.Len() != len(ref) {
		t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
	}
	wantCap := 0
	if highWater > 0 {
		wantCap = 1 << bits.Len(uint(highWater-1))
	}
	if q.Cap() != wantCap {
		t.Fatalf("step %d: Cap = %d after a high-water mark or reservation of %d, want %d", step, q.Cap(), highWater, wantCap)
	}
	if f := q.Front(); len(ref) > 0 && (f == nil || *f != ref[0]) {
		t.Fatalf("step %d: Front does not point at %d", step, ref[0])
	}
	for i := range q.buf {
		if off := (uint32(i) - q.head) & q.mask(); off < uint32(q.Len()) {
			if q.buf[i] != ref[off] {
				t.Fatalf("step %d: slot %d = %d, want %d", step, i, q.buf[i], ref[off])
			}
		} else if q.buf[i] != 0 {
			t.Fatalf("step %d: vacated slot %d still holds %d", step, i, q.buf[i])
		}
	}
}

// TestRingMatchesSliceQueue runs random operation sequences against the
// reference. Each sequence alternates filling and draining phases so the
// ring grows, wraps, and grows again with its head mid-buffer.
func TestRingMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	wrapped, wrappedReserves := 0, 0
	for seq := 0; seq < 200; seq++ {
		ops := make([]byte, 2000)
		pushShare := 0.5
		for i := range ops {
			if i%100 == 0 {
				pushShare = 0.25 + 0.5*rng.Float64()
			}
			if rng.Float64() < pushShare {
				ops[i] = byte(rng.IntN(4))
			} else {
				// Non-push ops; Reset (op 7, arg 0) stays rare.
				ops[i] = byte(4+rng.IntN(4)) | byte(1+rng.IntN(31))<<3
				if rng.IntN(500) == 0 {
					ops[i] = 7
				}
			}
		}
		g, r := ringOps(t, ops)
		wrapped, wrappedReserves = wrapped+g, wrappedReserves+r
	}
	if wrapped == 0 {
		t.Fatal("no push grew a wrapped ring: the sequences miss the unwrap path")
	}
	if wrappedReserves == 0 {
		t.Fatal("no Reserve grew a wrapped ring: the sequences miss its unwrap path")
	}
}

// FuzzRing drives the same reference comparison from arbitrary bytes.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 5, 6 | 3<<3, 7 | 1<<3})
	f.Add([]byte{0, 0, 4, 0, 0, 4, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{0, 0, 0, 4, 0, 7 | 27<<3, 0, 4, 7 | 16<<3, 7 | 20<<3})
	f.Fuzz(func(t *testing.T, ops []byte) { ringOps(t, ops) })
}

// TestRingSteadyStateAllocFree pins that a warm ring's push/pop cycle
// allocates nothing, even as its window wraps around the buffer.
func TestRingSteadyStateAllocFree(t *testing.T) {
	var q Ring[*int]
	x := new(int)
	for range 8 {
		q.Push(x)
	}
	if n := testing.AllocsPerRun(1000, func() {
		q.Push(x)
		q.Pop()
	}); n != 0 {
		t.Fatalf("warm push/pop allocates %.1f per pair, want 0", n)
	}
}

// BenchmarkRing measures one push/pop pair on a warm ring holding a
// window of entries, the steady state of every datapath queue.
func BenchmarkRing(b *testing.B) {
	var q Ring[*int]
	x := new(int)
	for range 64 {
		q.Push(x)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		q.Push(x)
		q.Pop()
	}
}

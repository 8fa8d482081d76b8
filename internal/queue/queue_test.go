package queue

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hmcsim/internal/packet"
)

func mkpkt(t *testing.T, tag uint16) *packet.Packet {
	t.Helper()
	p, err := packet.BuildRequest(packet.Request{Cmd: packet.CmdRD16, Tag: tag, Addr: uint64(tag) * 64})
	if err != nil {
		t.Fatal(err)
	}
	return &p
}

func TestNewRejectsBadDepth(t *testing.T) {
	for _, d := range []int{0, -1, -128} {
		if _, err := New(d); err == nil {
			t.Errorf("New(%d) succeeded, want error", d)
		}
	}
	q, err := New(1)
	if err != nil {
		t.Fatalf("New(1): %v", err)
	}
	if q.Depth() != 1 {
		t.Errorf("Depth() = %d, want 1", q.Depth())
	}
}

func TestFIFOOrder(t *testing.T) {
	q := MustNew(8)
	for i := uint16(0); i < 8; i++ {
		if err := q.Push(mkpkt(t, i), uint64(i)); err != nil {
			t.Fatalf("Push(%d): %v", i, err)
		}
	}
	if !q.Full() {
		t.Error("queue should be full")
	}
	if err := q.Push(mkpkt(t, 99), 0); err != ErrFull {
		t.Errorf("Push on full queue = %v, want ErrFull", err)
	}
	for i := uint16(0); i < 8; i++ {
		p, ok := q.Pop()
		if !ok {
			t.Fatalf("Pop %d failed", i)
		}
		if p.Tag() != i {
			t.Errorf("Pop order: got tag %d, want %d", p.Tag(), i)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop on empty queue succeeded")
	}
}

func TestWrapAround(t *testing.T) {
	q := MustNew(4)
	tag := uint16(0)
	// Interleave pushes and pops so head cycles through the ring multiple
	// times.
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := q.Push(mkpkt(t, tag), 0); err != nil {
				t.Fatal(err)
			}
			tag++
		}
		for i := 0; i < 3; i++ {
			p, ok := q.Pop()
			if !ok {
				t.Fatal("unexpected empty")
			}
			want := uint16(round*3 + i)
			if p.Tag() != want {
				t.Fatalf("round %d: got tag %d, want %d", round, p.Tag(), want)
			}
		}
	}
}

func TestAt(t *testing.T) {
	q := MustNew(4)
	// Force a wrapped layout: push 3, pop 2, push 2.
	for i := uint16(0); i < 3; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	q.Pop()
	q.Pop()
	_ = q.Push(mkpkt(t, 3), 0)
	_ = q.Push(mkpkt(t, 4), 0)
	want := []uint16{2, 3, 4}
	for i, w := range want {
		s := q.At(i)
		if s == nil || !s.Valid {
			t.Fatalf("At(%d) = %v", i, s)
		}
		if s.Packet.Tag() != w {
			t.Errorf("At(%d).Tag = %d, want %d", i, s.Packet.Tag(), w)
		}
	}
	if q.At(3) != nil {
		t.Error("At past count should be nil")
	}
	if q.At(-1) != nil {
		t.Error("At(-1) should be nil")
	}
	if h := q.Head(); h == nil || h.Packet.Tag() != 2 {
		t.Errorf("Head() = %v", h)
	}
}

func TestRemoveMiddle(t *testing.T) {
	q := MustNew(8)
	for i := uint16(0); i < 5; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	if !q.Remove(2) {
		t.Fatal("Remove(2) failed")
	}
	want := []uint16{0, 1, 3, 4}
	if q.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", q.Len(), len(want))
	}
	for i, w := range want {
		if got := q.At(i).Packet.Tag(); got != w {
			t.Errorf("after Remove: At(%d) = %d, want %d", i, got, w)
		}
	}
	// Remove head and tail.
	if !q.Remove(0) || !q.Remove(q.Len()-1) {
		t.Fatal("Remove head/tail failed")
	}
	want = []uint16{1, 3}
	for i, w := range want {
		if got := q.At(i).Packet.Tag(); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
	if q.Remove(5) {
		t.Error("Remove out of range succeeded")
	}
}

func TestRemoveWrapped(t *testing.T) {
	q := MustNew(4)
	for i := uint16(0); i < 4; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	q.Pop()
	q.Pop()
	_ = q.Push(mkpkt(t, 4), 0)
	_ = q.Push(mkpkt(t, 5), 0)
	// Queue now holds 2,3,4,5 with head mid-ring.
	if !q.Remove(1) {
		t.Fatal("Remove(1) failed")
	}
	want := []uint16{2, 4, 5}
	for i, w := range want {
		if got := q.At(i).Packet.Tag(); got != w {
			t.Errorf("At(%d) = %d, want %d", i, got, w)
		}
	}
}

func TestDeferredLifecycle(t *testing.T) {
	q := MustNew(4)
	_ = q.Push(mkpkt(t, 0), 0)
	_ = q.Push(mkpkt(t, 1), 0)
	q.At(1).Deferred = true
	if !q.At(1).Deferred {
		t.Fatal("Deferred not set")
	}
	q.At(0).Moved = true
	q.ClearCycleFlags()
	for i := 0; i < q.Len(); i++ {
		if q.At(i).Deferred || q.At(i).Moved {
			t.Errorf("slot %d still flagged after ClearCycleFlags", i)
		}
	}
}

func TestArrivalClock(t *testing.T) {
	q := MustNew(2)
	_ = q.Push(mkpkt(t, 7), 42)
	if got := q.Head().Arrived; got != 42 {
		t.Errorf("Arrived = %d, want 42", got)
	}
}

func TestReset(t *testing.T) {
	q := MustNew(4)
	for i := uint16(0); i < 4; i++ {
		_ = q.Push(mkpkt(t, i), 0)
	}
	q.Reset()
	if !q.Empty() || q.Len() != 0 || q.Free() != 4 {
		t.Errorf("after Reset: len=%d free=%d", q.Len(), q.Free())
	}
	// Queue must be usable after reset.
	if err := q.Push(mkpkt(t, 9), 0); err != nil {
		t.Fatal(err)
	}
	if q.Head().Packet.Tag() != 9 {
		t.Error("push after reset broken")
	}
}

// modelSlot is the reference model's view of one queued packet.
type modelSlot struct {
	tag             uint16
	deferred, moved bool
}

// checkFIFOModel drives a queue of the given depth, with its ring head
// first advanced to offset, through a random push/pop/remove/flag/clear
// sequence and checks it against a plain-slice reference model after
// every operation.
func checkFIFOModel(r *rand.Rand, depth, offset int) error {
	q := MustNew(depth)
	for i := 0; i < offset; i++ {
		_ = q.Push(mkpktQuick(0), 0)
		q.Pop()
	}
	if q.head != offset {
		return fmt.Errorf("head %d after %d push/pops, want %d", q.head, offset, offset)
	}
	var model []modelSlot
	tag := uint16(0)
	for op := 0; op < 200; op++ {
		switch r.Intn(5) {
		case 0: // push
			err := q.Push(mkpktQuick(tag), 0)
			if len(model) == depth {
				if err != ErrFull {
					return fmt.Errorf("op %d: push on full queue = %v", op, err)
				}
			} else {
				if err != nil {
					return fmt.Errorf("op %d: push: %v", op, err)
				}
				model = append(model, modelSlot{tag: tag})
				tag = (tag + 1) & packet.MaxTag
			}
		case 1: // pop
			p, ok := q.Pop()
			if len(model) == 0 {
				if ok {
					return fmt.Errorf("op %d: pop on empty queue succeeded", op)
				}
			} else {
				if !ok || p.Tag() != model[0].tag {
					return fmt.Errorf("op %d: pop = %v, %v, want tag %d", op, p, ok, model[0].tag)
				}
				model = model[1:]
			}
		case 2: // remove random index
			if len(model) == 0 {
				continue
			}
			i := r.Intn(len(model))
			if !q.Remove(i) {
				return fmt.Errorf("op %d: Remove(%d) failed", op, i)
			}
			model = append(model[:i], model[i+1:]...)
		case 3: // flag a random slot
			if len(model) == 0 {
				continue
			}
			i := r.Intn(len(model))
			if r.Intn(2) == 0 {
				q.At(i).Deferred, model[i].deferred = true, true
			} else {
				q.At(i).Moved, model[i].moved = true, true
			}
		case 4: // clock edge
			q.ClearCycleFlags()
			for i := range model {
				model[i].deferred, model[i].moved = false, false
			}
		}
		// Invariants after every operation.
		if q.Len() != len(model) || q.Free() != depth-len(model) {
			return fmt.Errorf("op %d: len %d free %d, model len %d", op, q.Len(), q.Free(), len(model))
		}
		for i, w := range model {
			s := q.At(i)
			if s == nil || !s.Valid || s.Packet.Tag() != w.tag || s.Deferred != w.deferred || s.Moved != w.moved {
				return fmt.Errorf("op %d: At(%d) = %+v, want %+v", op, i, s, w)
			}
		}
		if q.At(len(model)) != nil {
			return fmt.Errorf("op %d: At(%d) past the tail is not nil", op, len(model))
		}
		// Vacated slots are fully cleared, not just marked invalid.
		for i := len(model); i < depth; i++ {
			if s := q.slots[q.index(i)]; s != (Slot{}) {
				return fmt.Errorf("op %d: free ring slot %d = %+v", op, q.index(i), s)
			}
		}
	}
	return nil
}

// TestPropertyFIFOModel checks the queue against the reference model for
// every depth 1..9 from every starting head offset, so that Push, Pop,
// At, Remove and ClearCycleFlags all cross the ring's wrap boundary, and
// then for random depths up to 16.
func TestPropertyFIFOModel(t *testing.T) {
	for depth := 1; depth <= 9; depth++ {
		for offset := 0; offset < depth; offset++ {
			for seed := int64(0); seed < 4; seed++ {
				r := rand.New(rand.NewSource(seed*100 + int64(depth*10+offset)))
				if err := checkFIFOModel(r, depth, offset); err != nil {
					t.Fatalf("depth %d offset %d seed %d: %v", depth, offset, seed, err)
				}
			}
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		depth := 1 + r.Intn(16)
		if err := checkFIFOModel(r, depth, r.Intn(depth)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestClearCycleFlagsWrapped clears the cycle flags of a wrapped ring
// whose flagged slots sit on both sides of the wrap, and checks that the
// flags clear while everything else about the slots survives.
func TestClearCycleFlagsWrapped(t *testing.T) {
	q := MustNew(5)
	for i := uint16(0); i < 3; i++ {
		_ = q.Push(mkpkt(t, i), 0)
		q.Pop()
	}
	for i := uint16(0); i < 5; i++ {
		if err := q.Push(mkpkt(t, 10+i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// FIFO positions 0,1 live at ring slots 3,4; positions 2,3,4 wrap to
	// ring slots 0,1,2.
	if q.head != 3 {
		t.Fatalf("head = %d, want 3", q.head)
	}
	q.At(0).Moved = true
	q.At(1).Deferred = true
	q.At(2).Deferred = true
	q.At(2).Moved = true
	q.At(4).Moved = true
	q.At(3).Retries = 2
	q.ClearCycleFlags()
	for i := 0; i < q.Len(); i++ {
		s := q.At(i)
		if s.Deferred || s.Moved {
			t.Errorf("FIFO position %d still flagged: %+v", i, s)
		}
		if !s.Valid || s.Packet.Tag() != uint16(10+i) || s.Arrived != uint64(100+i) {
			t.Errorf("FIFO position %d = %+v, want tag %d arrived %d", i, s, 10+i, 100+i)
		}
	}
	if got := q.At(3).Retries; got != 2 {
		t.Errorf("Retries = %d after ClearCycleFlags, want 2", got)
	}
}

func mkpktQuick(tag uint16) *packet.Packet {
	p, err := packet.BuildRequest(packet.Request{Cmd: packet.CmdRD16, Tag: tag})
	if err != nil {
		panic(err)
	}
	return &p
}

func TestSlab(t *testing.T) {
	qs, err := Slab(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 4 {
		t.Fatalf("%d queues", len(qs))
	}
	for i := range qs {
		if qs[i].Depth() != 8 {
			t.Errorf("queue %d depth %d", i, qs[i].Depth())
		}
	}
	// Queues are independent despite the shared slab.
	_ = qs[0].Push(mkpkt(t, 1), 0)
	if qs[1].Len() != 0 {
		t.Error("slab queues share state")
	}
	// Overfilling one queue must not leak into its neighbour's slots.
	for i := uint16(0); i < 8; i++ {
		_ = qs[2].Push(mkpkt(t, i), 0)
	}
	if err := qs[2].Push(mkpkt(t, 99), 0); err != ErrFull {
		t.Error("slab queue exceeded its slice")
	}
	if qs[3].Len() != 0 {
		t.Error("overflow leaked into the next queue")
	}
	if _, err := Slab(0, 8); err == nil {
		t.Error("accepted zero queues")
	}
	if _, err := Slab(4, 0); err == nil {
		t.Error("accepted zero depth")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew(0) did not panic")
		}
	}()
	MustNew(0)
}

func TestQueueString(t *testing.T) {
	q := MustNew(4)
	_ = q.Push(mkpkt(t, 1), 0)
	if got := q.String(); got != "queue[1/4]" {
		t.Errorf("String() = %q", got)
	}
}

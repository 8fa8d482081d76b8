package core

import (
	"reflect"
	"testing"

	"hmcsim/internal/packet"
)

// fillStats sets every uint64 field of a Stats to a distinct non-zero
// value derived from base, via reflection, so a newly added counter can
// never silently escape the Sub round-trip checks.
func fillStats(t *testing.T, base uint64) Stats {
	t.Helper()
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("Stats field %s is %v; extend fillStats", v.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(base + uint64(i)*7)
	}
	return s
}

func TestStatsAddSubRoundTrip(t *testing.T) {
	a := fillStats(t, 1000)
	b := fillStats(t, 3)

	// sum is a+b built field by field, so Sub must undo it on every
	// counter, including one added to Stats later.
	var sum Stats
	vsum, va, vb := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < vsum.NumField(); i++ {
		vsum.Field(i).SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
	}

	if diff := sum.Sub(b); diff != a {
		t.Errorf("(a+b)-b != a:\n%+v\n%+v", diff, a)
	}
	if delta := sum.Delta(b); delta != a {
		t.Errorf("Delta disagrees with Sub:\n%+v\n%+v", delta, a)
	}
	if zero := a.Sub(a); zero != (Stats{}) {
		t.Errorf("a-a != zero: %+v", zero)
	}
}

func TestStatsDeltaWindow(t *testing.T) {
	// The measurement-window idiom: snapshot, run, subtract.
	h := newSimple(t, testConfig())
	before := h.Stats()
	sendReq(t, h, 0, 0, packet.Request{
		CUB: 0, Addr: 0, Tag: 1, Cmd: packet.CmdRD16,
	})
	for i := 0; i < 20; i++ {
		_ = h.Clock()
	}
	drain(t, h, 0)
	d := h.Stats().Delta(before)
	if d.Reads != 1 || d.Responses != 1 || d.Recvs != 1 {
		t.Errorf("window delta = %+v, want one read/response/recv", d)
	}
}

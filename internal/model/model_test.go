package model

import (
	"testing"
)

func TestOpKindStrings(t *testing.T) {
	cases := map[OpKind]string{
		OpRead: "read", OpWrite: "write", OpAdd: "add", OpRemove: "remove", OpInc: "inc",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if got := OpKind(99).String(); got != "opkind(99)" {
		t.Errorf("unknown kind rendered %q", got)
	}
}

func TestIsMutator(t *testing.T) {
	if OpRead.IsMutator() {
		t.Error("read is not a mutator")
	}
	for _, k := range []OpKind{OpWrite, OpAdd, OpRemove, OpInc} {
		if !k.IsMutator() {
			t.Errorf("%s should be a mutator", k)
		}
	}
}

func TestOperationString(t *testing.T) {
	cases := []struct {
		op   Operation
		want string
	}{
		{Read(), "read"},
		{Write("a"), "write(a)"},
		{Add("e"), "add(e)"},
		{Remove("e"), "remove(e)"},
		{Inc(-3), "inc(-3)"},
	}
	for _, tc := range cases {
		if got := tc.op.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.op, got, tc.want)
		}
	}
}

func TestReadResponseSortsAndDedups(t *testing.T) {
	r := ReadResponse([]Value{"b", "a", "b", "c", "a"})
	want := []Value{"a", "b", "c"}
	if len(r.Values) != len(want) {
		t.Fatalf("values = %v", r.Values)
	}
	for i := range want {
		if r.Values[i] != want[i] {
			t.Fatalf("values = %v, want %v", r.Values, want)
		}
	}
}

func TestReadResponseDoesNotAliasInput(t *testing.T) {
	in := []Value{"b", "a"}
	r := ReadResponse(in)
	in[0] = "zzz"
	if r.Contains("zzz") {
		t.Fatal("response aliases caller slice")
	}
}

// TestReadResponseOfCanonicalisesInPlace: the handed-over slice becomes the
// response's Values (one allocation a read, the store's own), sorted and
// deduplicated like ReadResponse's copy; and a read of nothing — nil or
// empty, through either constructor — is a non-nil empty set, the codec's
// rvalHasValues bit and the spec's "read of nothing".
func TestReadResponseOfCanonicalisesInPlace(t *testing.T) {
	in := []Value{"b", "a", "b", "c", "a"}
	r := ReadResponseOf(in)
	if !r.Equal(ReadResponse([]Value{"c", "b", "a"})) {
		t.Fatalf("values = %v, want {a,b,c}", r.Values)
	}
	if &r.Values[0] != &in[0] {
		t.Fatal("ReadResponseOf copied the slice it was handed")
	}
	for _, r := range []Response{ReadResponse(nil), ReadResponse([]Value{}), ReadResponseOf(nil), ReadResponseOf([]Value{})} {
		if r.Values == nil || len(r.Values) != 0 {
			t.Fatalf("a read of nothing has Values %#v, want non-nil and empty", r.Values)
		}
	}
}

func TestResponseEqual(t *testing.T) {
	cases := []struct {
		a, b Response
		want bool
	}{
		{OKResponse(), OKResponse(), true},
		{OKResponse(), ReadResponse(nil), false},
		{ReadResponse([]Value{"a"}), ReadResponse([]Value{"a"}), true},
		{ReadResponse([]Value{"a"}), ReadResponse([]Value{"b"}), false},
		{ReadResponse([]Value{"a"}), ReadResponse([]Value{"a", "b"}), false},
		{CountResponse(3), CountResponse(3), true},
		{CountResponse(3), CountResponse(4), false},
		{ReadResponse(nil), ReadResponse(nil), true},
	}
	for _, tc := range cases {
		if got := tc.a.Equal(tc.b); got != tc.want {
			t.Errorf("%s.Equal(%s) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestResponseString(t *testing.T) {
	if got := OKResponse().String(); got != "ok" {
		t.Errorf("ok response = %q", got)
	}
	if got := ReadResponse([]Value{"b", "a"}).String(); got != "{a,b}" {
		t.Errorf("read response = %q", got)
	}
	if got := CountResponse(-2).String(); got != "-2" {
		t.Errorf("count response = %q", got)
	}
}

func TestResponseContains(t *testing.T) {
	r := ReadResponse([]Value{"a", "b"})
	if !r.Contains("a") || r.Contains("z") {
		t.Fatal("Contains misbehaves")
	}
}

func TestEventPredicatesAndString(t *testing.T) {
	w := DoEvent(1, "x", Write("a"), OKResponse())
	if !w.IsDo() || !w.IsWrite() || w.IsRead() {
		t.Fatal("write event predicates wrong")
	}
	r := DoEvent(0, "x", Read(), ReadResponse([]Value{"a"}))
	if !r.IsRead() || r.IsWrite() {
		t.Fatal("read event predicates wrong")
	}
	if got := w.String(); got != "r1:do x.write(a)=ok" {
		t.Errorf("event string = %q", got)
	}
	s := SendEvent(0, 3)
	if got := s.String(); got != "r0:send m3" {
		t.Errorf("send string = %q", got)
	}
	if s.IsDo() || s.IsWrite() {
		t.Fatal("send event predicates wrong")
	}
	rcv := ReceiveEvent(2, 3)
	if got := rcv.String(); got != "r2:receive m3" {
		t.Errorf("receive string = %q", got)
	}
}

func TestMessageBits(t *testing.T) {
	m := Message{Payload: make([]byte, 5)}
	if m.Bits() != 40 {
		t.Fatalf("Bits = %d", m.Bits())
	}
}

func TestDotString(t *testing.T) {
	if got := (Dot{Origin: 2, Seq: 5}).String(); got != "(r2,5)" {
		t.Errorf("dot string = %q", got)
	}
}

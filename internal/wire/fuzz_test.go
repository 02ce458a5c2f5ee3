package wire

import (
	"testing"

	"repro/internal/vclock"
)

// FuzzReader drains arbitrary bytes through every decoder; no input may
// panic or allocate unboundedly.
func FuzzReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x05, 'h', 'e', 'l', 'l', 'o'})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(data)
		_ = r.Uvarint()
		_ = r.String()
		_ = r.VC()
		r.SparseVC(vclock.New(4))
		_ = r.Dot()
		_ = r.Varint()
	})
}

package bits

import (
	"testing"
	"testing/quick"
)

func TestKeyFromUint64RoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		got, ok := KeyFromUint64(v).Uint64()
		return ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyCmpMatchesUint64(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := KeyFromUint64(a), KeyFromUint64(b)
		switch {
		case a < b:
			return ka.Cmp(kb) == -1 && ka.Less(kb)
		case a > b:
			return ka.Cmp(kb) == 1 && !ka.Less(kb)
		default:
			return ka.Cmp(kb) == 0 && ka.Equal(kb)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyIncDecMatchUint64(t *testing.T) {
	f := func(v uint64) bool {
		k := KeyFromUint64(v)
		if v < ^uint64(0) {
			inc, ok := k.Inc()
			got, fits := inc.Uint64()
			if !ok || !fits || got != v+1 {
				return false
			}
		}
		if v > 0 {
			dec, ok := k.Dec()
			got, fits := dec.Uint64()
			if !ok || !fits || got != v-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyIncCarriesAcrossWords(t *testing.T) {
	var k Key
	k.w[KeyWords-1] = ^uint64(0)
	k.w[KeyWords-2] = 5
	inc, ok := k.Inc()
	if !ok {
		t.Fatal("Inc reported overflow on non-maximal key")
	}
	if inc.w[KeyWords-1] != 0 || inc.w[KeyWords-2] != 6 {
		t.Fatalf("carry failed: got %v", inc)
	}
	dec, ok := inc.Dec()
	if !ok || dec != k {
		t.Fatalf("Dec(Inc(k)) != k: got %v want %v", dec, k)
	}
}

func TestKeyIncOverflow(t *testing.T) {
	var k Key
	for i := range k.w {
		k.w[i] = ^uint64(0)
	}
	if _, ok := k.Inc(); ok {
		t.Fatal("Inc on all-ones key should report overflow")
	}
}

func TestKeyDecOnZero(t *testing.T) {
	var k Key
	if _, ok := k.Dec(); ok {
		t.Fatal("Dec on zero should report underflow")
	}
}

func TestSetBitGetBit(t *testing.T) {
	var k Key
	positions := []int{0, 1, 63, 64, 65, 127, 128, 300, 511}
	for _, p := range positions {
		k = k.SetBit(p, 1)
	}
	for _, p := range positions {
		if k.Bit(p) != 1 {
			t.Fatalf("bit %d not set", p)
		}
	}
	if k.Bit(2) != 0 || k.Bit(200) != 0 {
		t.Fatal("unexpected set bit")
	}
	for _, p := range positions {
		k = k.SetBit(p, 0)
	}
	if !k.IsZero() {
		t.Fatalf("clearing all bits should leave zero, got %v", k)
	}
}

func TestLowMask(t *testing.T) {
	tests := []struct {
		n    int
		want uint64
	}{
		{0, 0},
		{1, 1},
		{3, 7},
		{63, 1<<63 - 1},
	}
	for _, tt := range tests {
		got, ok := LowMask(tt.n).Uint64()
		if !ok || got != tt.want {
			t.Errorf("LowMask(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
	wide := LowMask(130)
	for p := 0; p < 130; p++ {
		if wide.Bit(p) != 1 {
			t.Fatalf("LowMask(130) bit %d clear", p)
		}
	}
	if wide.Bit(130) != 0 {
		t.Fatal("LowMask(130) bit 130 set")
	}
}

func TestClearLowSetLow(t *testing.T) {
	k := KeyFromUint64(0b101101)
	if got, _ := k.ClearLow(3).Uint64(); got != 0b101000 {
		t.Errorf("ClearLow(3) = %b", got)
	}
	if got, _ := k.SetLow(3).Uint64(); got != 0b101111 {
		t.Errorf("SetLow(3) = %b", got)
	}
}

func TestShr1AndShrN(t *testing.T) {
	f := func(v uint64, n uint8) bool {
		k := KeyFromUint64(v)
		if got, _ := k.Shr1().Uint64(); got != v>>1 {
			return false
		}
		s := int(n % 64)
		got, _ := k.ShrN(s).Uint64()
		return got == v>>uint(s)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShrNAcrossWords(t *testing.T) {
	var k Key
	k.w[0] = 0xdeadbeefcafef00d
	shifted := k.ShrN(64 * (KeyWords - 1))
	if got, ok := shifted.Uint64(); !ok || got != 0xdeadbeefcafef00d {
		t.Fatalf("ShrN whole words: got %x ok=%v", got, ok)
	}
	shifted = k.ShrN(64*(KeyWords-1) + 4)
	if got, _ := shifted.Uint64(); got != 0xdeadbeefcafef00d>>4 {
		t.Fatalf("ShrN partial: got %x", got)
	}
	if !k.ShrN(KeyBits).IsZero() {
		t.Fatal("ShrN(KeyBits) should be zero")
	}
}

func TestShlNInvertsShrN(t *testing.T) {
	var k Key
	k.w[KeyWords-1] = 0xdeadbeefcafef00d
	// Round trips hold while n + k.Len() <= KeyBits (no bits pushed out).
	for _, n := range []int{0, 1, 5, 63, 64, 65, 128, 64 * (KeyWords - 1)} {
		if got := k.ShlN(n).ShrN(n); got != k {
			t.Fatalf("ShlN(%d) then ShrN(%d) = %v, want %v", n, n, got, k)
		}
	}
	nibble := KeyFromUint64(0xd)
	if got := nibble.ShlN(KeyBits - 4).ShrN(KeyBits - 4); got != nibble {
		t.Fatalf("top-nibble round trip = %v, want %v", got, nibble)
	}
	if !k.ShlN(KeyBits).IsZero() {
		t.Fatal("ShlN(KeyBits) should be zero")
	}
	// Bits pushed past the top are discarded.
	var top Key
	top.w[0] = 1 << 63
	if !top.ShlN(1).IsZero() {
		t.Fatal("ShlN must discard overflow bits")
	}
	if got := KeyFromUint64(3).ShlN(64 * (KeyWords - 1)); got.w[0] != 3 {
		t.Fatalf("ShlN whole words: w[0] = %x, want 3", got.w[0])
	}
}

func TestKeyLen(t *testing.T) {
	if got := (Key{}).Len(); got != 0 {
		t.Fatalf("Len(0) = %d", got)
	}
	if got := KeyFromUint64(9).Len(); got != 4 {
		t.Fatalf("Len(9) = %d, want 4", got)
	}
	var k Key
	k = k.SetBit(300, 1)
	if got := k.Len(); got != 301 {
		t.Fatalf("Len(bit 300) = %d, want 301", got)
	}
}

func TestBitwiseOps(t *testing.T) {
	f := func(a, b uint64) bool {
		ka, kb := KeyFromUint64(a), KeyFromUint64(b)
		or, _ := ka.Or(kb).Uint64()
		and, _ := ka.And(kb).Uint64()
		xor, _ := ka.Xor(kb).Uint64()
		andNot, _ := ka.AndNot(kb).Uint64()
		return or == a|b && and == a&b && xor == a^b && andNot == a&^b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyString(t *testing.T) {
	if got := KeyFromUint64(255).String(); got != "0xff" {
		t.Errorf("String = %q", got)
	}
	var k Key
	k.w[KeyWords-2] = 1
	if got := k.String(); got != "0x10000000000000000" {
		t.Errorf("String wide = %q", got)
	}
}

func TestBitPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range bit position")
		}
	}()
	var k Key
	k.Bit(KeyBits)
}

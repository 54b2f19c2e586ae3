package prince

import (
	"testing"
	"testing/quick"
)

// Known-answer test vectors from the PRINCE specification (Borghoff et al.,
// 2012, Appendix A).
var katVectors = []struct {
	pt, k0, k1, ct uint64
}{
	{0x0000000000000000, 0x0000000000000000, 0x0000000000000000, 0x818665aa0d02dfda},
	{0xffffffffffffffff, 0x0000000000000000, 0x0000000000000000, 0x604ae6ca03c20ada},
	{0x0000000000000000, 0xffffffffffffffff, 0x0000000000000000, 0x9fb51935fc3df524},
	{0x0000000000000000, 0x0000000000000000, 0xffffffffffffffff, 0x78a54cbe737bb7ef},
	{0x0123456789abcdef, 0x0000000000000000, 0xfedcba9876543210, 0xae25ad3ca8fa9ccf},
}

func TestKnownAnswerVectors(t *testing.T) {
	for i, v := range katVectors {
		c := New(v.k0, v.k1)
		if got := c.Encrypt(v.pt); got != v.ct {
			t.Errorf("vector %d: Encrypt(%#016x) = %#016x, want %#016x", i, v.pt, got, v.ct)
		}
		if got := c.Decrypt(v.ct); got != v.pt {
			t.Errorf("vector %d: Decrypt(%#016x) = %#016x, want %#016x", i, v.ct, got, v.pt)
		}
	}
}

func TestRoundConstantsAlphaReflection(t *testing.T) {
	for i := 0; i < 12; i++ {
		if roundConstants[i]^roundConstants[11-i] != Alpha {
			t.Errorf("RC%d ^ RC%d != alpha", i, 11-i)
		}
	}
}

func TestSboxInverse(t *testing.T) {
	for i := 0; i < 16; i++ {
		if sboxInv[sbox[i]] != uint8(i) {
			t.Errorf("sboxInv(sbox(%d)) != %d", i, i)
		}
	}
}

func TestMPrimeIsInvolution(t *testing.T) {
	f := func(x uint64) bool { return mPrime(mPrime(x)) == x }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMPrimeIsLinear(t *testing.T) {
	f := func(a, b uint64) bool { return mPrime(a^b) == mPrime(a)^mPrime(b) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftRowsInverse(t *testing.T) {
	f := func(x uint64) bool {
		return shiftRows(shiftRows(x, &shiftRowsPerm), &shiftRowsInvPerm) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	f := func(pt, k0, k1 uint64) bool {
		c := New(k0, k1)
		return c.Decrypt(c.Encrypt(pt)) == pt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEncryptionIsPermutation(t *testing.T) {
	// Distinct plaintexts must encrypt to distinct ciphertexts.
	c := New(0xdeadbeefcafebabe, 0x0123456789abcdef)
	seen := make(map[uint64]uint64)
	for pt := uint64(0); pt < 4096; pt++ {
		ct := c.Encrypt(pt)
		if prev, dup := seen[ct]; dup {
			t.Fatalf("collision: Encrypt(%d) == Encrypt(%d) == %#x", pt, prev, ct)
		}
		seen[ct] = pt
	}
}

func TestAvalanche(t *testing.T) {
	// Flipping one plaintext bit should flip roughly half the output bits.
	c := New(0x1111111111111111, 0x2222222222222222)
	base := c.Encrypt(0)
	totalFlips := 0
	for b := 0; b < 64; b++ {
		diff := base ^ c.Encrypt(1<<uint(b))
		flips := 0
		for d := diff; d != 0; d &= d - 1 {
			flips++
		}
		totalFlips += flips
		if flips < 10 {
			t.Errorf("bit %d: only %d output bits flipped", b, flips)
		}
	}
	avg := float64(totalFlips) / 64
	if avg < 24 || avg > 40 {
		t.Errorf("average avalanche %v bits, want ~32", avg)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	c := New(0x0123456789abcdef, 0xfedcba9876543210)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= c.Encrypt(uint64(i))
	}
	_ = sink
}

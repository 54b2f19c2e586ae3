// Package prince implements the PRINCE block cipher (Borghoff et al.,
// ASIACRYPT 2012): a 64-bit block cipher with a 128-bit key, optimized for
// low-latency hardware. Randomized cache designs (CEASER-S, Scatter-Cache,
// Mirage, Maya) use PRINCE as the address-randomizing function; the paper's
// Maya configuration uses the 12-round cipher and charges three cycles of
// lookup latency for it.
//
// The implementation follows the specification exactly — FX whitening with
// k0/k0', the PRINCE-core with five forward rounds, the S·M'·S⁻¹ middle
// layer, five inverse rounds, and the α-reflection property — and is
// validated against the published known-answer test vectors.
package prince

import "math/bits"

// Alpha is the reflection constant: decryption equals encryption with
// (k0, k0', k1) replaced by (k0', k0, k1^Alpha).
const Alpha = 0xc0ac29b7c97c50dd

// roundConstants RC0..RC11. RCi ^ RC(11-i) == Alpha for all i.
var roundConstants = [12]uint64{
	0x0000000000000000,
	0x13198a2e03707344,
	0xa4093822299f31d0,
	0x082efa98ec4e6c89,
	0x452821e638d01377,
	0xbe5466cf34e90c6c,
	0x7ef84f78fd955cb1,
	0x85840851f1ac43aa,
	0xc882d32f25323c54,
	0x64a51195e0e3610d,
	0xd3b5a399ca0c2399,
	0xc0ac29b7c97c50dd,
}

// sbox and its inverse operate on nibbles.
var sbox = [16]uint8{0xb, 0xf, 0x3, 0x2, 0xa, 0xc, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xe, 0x5, 0xd, 0x4}

var sboxInv = func() [16]uint8 {
	var inv [16]uint8
	for i, v := range sbox {
		inv[v] = uint8(i)
	}
	return inv
}()

// shiftRowsPerm maps output nibble position j to the input nibble position
// it reads from, with nibble 0 being the most significant. This is the
// AES-like ShiftRows of the PRINCE specification.
var shiftRowsPerm = [16]int{0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11}

var shiftRowsInvPerm = func() [16]int {
	var inv [16]int
	for j, i := range shiftRowsPerm {
		inv[i] = j
	}
	return inv
}()

// mPrimeMasks[o] is the XOR mask of input bits feeding output bit o
// (bit 63 = most significant). M' is an involution, so the same masks
// serve encryption and decryption.
var mPrimeMasks = buildMPrime()

// buildMPrime constructs the 64×64 involutive matrix M' from the block
// structure in the PRINCE specification: M' = diag(M̂0, M̂1, M̂1, M̂0),
// where each M̂ is a 16×16 matrix of 4×4 blocks m_k (identity with the
// k-th diagonal element zeroed), arranged as block[i][j] = m_{(i+j+off) mod 4}
// with off = 0 for M̂0 and off = 1 for M̂1.
func buildMPrime() [64]uint64 {
	var masks [64]uint64
	chunkOffsets := [4]int{0, 1, 1, 0} // M̂0, M̂1, M̂1, M̂0
	for chunk := 0; chunk < 4; chunk++ {
		off := chunkOffsets[chunk]
		for i := 0; i < 4; i++ { // output nibble within chunk
			for b := 0; b < 4; b++ { // bit within nibble, 0 = MSB of nibble
				outBit := chunk*16 + i*4 + b // position from MSB
				var mask uint64
				for j := 0; j < 4; j++ { // input nibble within chunk
					if (i+j+off)%4 != b {
						inBit := chunk*16 + j*4 + b
						mask |= 1 << (63 - uint(inBit))
					}
				}
				masks[outBit] = mask
			}
		}
	}
	return masks
}

// subBytes applies the S-box to all 16 nibbles.
func subBytes(x uint64, box *[16]uint8) uint64 {
	var out uint64
	for i := 0; i < 16; i++ {
		shift := uint(60 - 4*i)
		out |= uint64(box[(x>>shift)&0xf]) << shift
	}
	return out
}

// mPrime applies the M' linear layer.
func mPrime(x uint64) uint64 {
	var out uint64
	for o := 0; o < 64; o++ {
		if bits.OnesCount64(x&mPrimeMasks[o])&1 == 1 {
			out |= 1 << (63 - uint(o))
		}
	}
	return out
}

// shiftRows permutes nibbles according to perm (output j ← input perm[j]).
func shiftRows(x uint64, perm *[16]int) uint64 {
	var out uint64
	for j := 0; j < 16; j++ {
		nib := (x >> uint(60-4*perm[j])) & 0xf
		out |= nib << uint(60-4*j)
	}
	return out
}

// Cipher is a PRINCE instance with an expanded key.
type Cipher struct {
	k0, k0p, k1 uint64
}

// New returns a PRINCE cipher for the 128-bit key (k0 || k1).
func New(k0, k1 uint64) *Cipher {
	return &Cipher{
		k0:  k0,
		k0p: bits.RotateLeft64(k0, -1) ^ (k0 >> 63),
		k1:  k1,
	}
}

// Encrypt enciphers one 64-bit block.
func (c *Cipher) Encrypt(pt uint64) uint64 {
	x := pt ^ c.k0
	x = core(x, c.k1)
	return x ^ c.k0p
}

// Decrypt deciphers one 64-bit block using the α-reflection property.
func (c *Cipher) Decrypt(ct uint64) uint64 {
	x := ct ^ c.k0p
	x = core(x, c.k1^Alpha)
	return x ^ c.k0
}

// core is PRINCE-core: the 12-round keyed permutation around k1.
func core(x, k1 uint64) uint64 {
	x ^= k1
	x ^= roundConstants[0]
	for i := 1; i <= 5; i++ {
		x = subBytes(x, &sbox)
		x = mPrime(x)
		x = shiftRows(x, &shiftRowsPerm)
		x ^= roundConstants[i]
		x ^= k1
	}
	x = subBytes(x, &sbox)
	x = mPrime(x)
	x = subBytes(x, &sboxInv)
	for i := 6; i <= 10; i++ {
		x ^= k1
		x ^= roundConstants[i]
		x = shiftRows(x, &shiftRowsInvPerm)
		x = mPrime(x)
		x = subBytes(x, &sboxInv)
	}
	x ^= roundConstants[11]
	x ^= k1
	return x
}

package packet

import "math/bits"

// The HMC specification protects every packet with a 32-bit cyclic
// redundancy code carried in the upper 32 bits of the packet tail. The
// polynomial is the Koopman CRC-32K polynomial (0x741B8CD7), selected for
// embedded-network error detection (Koopman & Chakravarty, DSN 2004, the
// paper's reference [29]).
//
// The CRC is computed over the entire packet with the CRC field itself
// taken as zero, most-significant-word-first, MSB-first (unreflected)
// over the bytes of each 64-bit word in little-endian order: byte 0 (bits
// 7:0) enters the register first, byte 7 (bits 63:56) last.
//
// The implementation is slicing-by-8: one step folds a whole word through
// eight 256-entry tables (8 KiB, built at package initialization).
// crcTables[0] is the classic byte table, and crcTables[k][b] is the CRC
// contribution of byte b followed by k zero bytes. The first four bytes
// of the word enter the register together, byte 0 in its top byte,
// which is bits.ReverseBytes32 of the low half; the four register bytes
// then index tables 7..4 and the word's upper bytes 4..7 index tables
// 3..0. The result equals the byte-at-a-time division bit for bit.

// crcPoly is the Koopman CRC-32K generator polynomial in the conventional
// MSB-first (normal) representation.
const crcPoly uint32 = 0x741B8CD7

// crcTables are the slicing-by-8 lookup tables for crcPoly.
var crcTables [8][256]uint32

func init() {
	for i := 0; i < 256; i++ {
		crc := uint32(i) << 24
		for bit := 0; bit < 8; bit++ {
			if crc&0x80000000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		crcTables[0][i] = crc
	}
	for k := 1; k < 8; k++ {
		for i := 0; i < 256; i++ {
			prev := crcTables[k-1][i]
			crcTables[k][i] = prev<<8 ^ crcTables[0][prev>>24]
		}
	}
}

// CRC computes the packet CRC over words. The caller must zero the CRC
// field of the tail word before calling (Finalize and VerifyCRC do this
// automatically).
func CRC(words []uint64) uint32 {
	t := &crcTables
	crc := uint32(0)
	for _, w := range words {
		x := crc ^ bits.ReverseBytes32(uint32(w))
		hi := uint32(w >> 32)
		crc = t[7][x>>24] ^ t[6][byte(x>>16)] ^ t[5][byte(x>>8)] ^ t[4][byte(x)] ^
			t[3][byte(hi)] ^ t[2][byte(hi>>8)] ^ t[1][byte(hi>>16)] ^ t[0][hi>>24]
	}
	return crc
}

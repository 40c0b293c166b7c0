//! CRC-16 payload protection for flits.
//!
//! The resilience layer assumes the routing header (source, destination,
//! packet id) is protected by a separate, stronger code inside the router
//! datapath — a standard assumption, since header bits feed control logic —
//! while the 128-bit payload is covered end-to-end by a CRC-16 computed at
//! the source NI and checked at every ejection port. We use CRC-16/CCITT-FALSE
//! (polynomial 0x1021, init 0xFFFF). Sealing runs once per flit a source NI
//! *sequences* and checking once per sequenced flit ejected — per flit in a
//! resilient run, never in a plain one — so the byte-at-a-time table form
//! is used instead of the serial bitwise loop: same polynomial, same
//! values, ~8x fewer dependent operations.

/// Byte-indexed step table for CRC-16/CCITT-FALSE (MSB-first, poly 0x1021),
/// built at compile time.
const CRC16_TABLE: [u16; 256] = {
    let mut table = [0u16; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Fold one byte into a running CRC-16/CCITT-FALSE value.
#[inline]
fn crc16_step(crc: u16, byte: u8) -> u16 {
    (crc << 8) ^ CRC16_TABLE[((crc >> 8) ^ byte as u16) as usize]
}

/// CRC-16/CCITT-FALSE over a byte slice.
pub fn crc16(bytes: &[u8]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &b in bytes {
        crc = crc16_step(crc, b);
    }
    crc
}

/// CRC-16 over a sequence of little-endian `u64` words (convenience for
/// hashing flit fields without allocating).
pub fn crc16_words(words: &[u64]) -> u16 {
    let mut crc: u16 = 0xFFFF;
    for &w in words {
        for b in w.to_le_bytes() {
            crc = crc16_step(crc, b);
        }
    }
    crc
}

/// SplitMix64 finalizer — used to derive deterministic per-flit payloads so
/// corruption detection is testable without storing real data.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ccitt_false_check_value() {
        // The standard check value for CRC-16/CCITT-FALSE over "123456789".
        assert_eq!(crc16(b"123456789"), 0x29B1);
    }

    #[test]
    fn empty_input_is_init_value() {
        assert_eq!(crc16(&[]), 0xFFFF);
        assert_eq!(crc16_words(&[]), 0xFFFF);
    }

    #[test]
    fn words_match_byte_encoding() {
        let w = 0x0123_4567_89AB_CDEFu64;
        assert_eq!(crc16_words(&[w]), crc16(&w.to_le_bytes()));
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let base = [0xDEAD_BEEF_u64, 0x1234];
        let c0 = crc16_words(&base);
        for bit in 0..64 {
            let flipped = [base[0] ^ (1u64 << bit), base[1]];
            assert_ne!(crc16_words(&flipped), c0, "bit {bit} undetected");
        }
    }

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }
}

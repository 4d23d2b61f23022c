//! CRC-32 (IEEE 802.3, reflected): the one checksum routine behind
//! every log frame and group, and every WAL frame, delta, segment and
//! manifest Waldo writes.
//!
//! Two kernels compute the same register. Slicing-by-8 tables serve
//! short inputs and every CPU. On x86-64 with PCLMULQDQ, inputs of at
//! least [`CLMUL_MIN`] bytes fold sixteen bytes at a time with
//! carry-less multiplies instead (the folding scheme of Gopal et al.,
//! "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ",
//! Intel 2009), and the tables finish the last fifteen or fewer. The
//! feature is detected at run time, so one binary serves every x86-64
//! machine; below the threshold the fold's fixed setup and reduction
//! cost more than the tables save.

/// The register an empty input leaves: CRC-32 starts from all ones
/// and complements at the end.
pub(crate) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Inputs at least this long go to the folding kernel where the CPU
/// has one: it needs 64 bytes to start its four lanes, and pays its
/// reduction back only past twice that.
const CLMUL_MIN: usize = 128;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    !crc32_update(CRC_INIT, data)
}

/// Feeds `data` into a running CRC register (start from [`CRC_INIT`],
/// complement at the end), so a frame's kind byte and payload can be
/// summed where they lie instead of being copied side by side first.
/// The register after any split of the input is the bytewise loop's.
#[inline]
pub(crate) fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN {
        let (blocks, tail) = data.split_at(data.len() & !15);
        if let Some(crc) = clmul::update(crc, blocks) {
            return update_tables(crc, tail);
        }
    }
    update_tables(crc, data)
}

/// Slicing-by-8 tables, built at compile time: `CRC_TABLES[0]` is the
/// classic one-byte table, and `CRC_TABLES[k][b]` is the register
/// after byte `b` and then `k` zero bytes — which lets eight input
/// bytes fold into the register with eight independent lookups.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut c = b as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][b] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            b += 1;
        }
        k += 1;
    }
    t
};

/// The table kernel: eight bytes per step (slicing-by-8), then the
/// tail bytewise.
fn update_tables(mut crc: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply kernel. The only `unsafe` code in the
/// stack: one call into a function compiled for PCLMULQDQ, made after
/// the feature was detected, and one unaligned 16-byte load.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Folding constants for the reflected polynomial, as in the paper
    // and Linux's `crc32-pclmul`: each is x^k mod P, bit-reflected and
    // shifted left by one.
    /// x^(4·128+32) and x^(4·128−32): fold a lane 64 bytes forward.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    /// x^(128+32) and x^(128−32): fold 16 bytes forward.
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// x^64: the 96-to-64-bit step.
    const K5: i64 = 0x1_63cd_6124;
    /// P(x), and Barrett's μ = ⌊x^64 / P(x)⌋, both reflected.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// The register after `blocks`, a whole number of 16-byte blocks
    /// and at least four of them; `None` on a CPU without PCLMULQDQ.
    pub(super) fn update(crc: u32, blocks: &[u8]) -> Option<u32> {
        if !is_x86_feature_detected!("pclmulqdq") {
            return None;
        }
        // SAFETY: `fold` is compiled for PCLMULQDQ (plus the x86-64
        // baseline SSE2), which was detected on this CPU just above.
        Some(unsafe { fold(crc, blocks) })
    }

    /// One block, loaded unaligned.
    #[inline(always)]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block[..16].try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes; the unaligned load
        // reads exactly those, with no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `acc` carried 128 bits forward (by the distance `k` encodes)
    /// and added to `next`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    fn fold16(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The register after `blocks` (whole 16-byte blocks, at least
    /// four), folded from `crc`.
    ///
    /// # Safety
    ///
    /// Compiled for PCLMULQDQ, so it may be called only on a CPU that
    /// has it; [`update`] checks before calling.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(crc: u32, blocks: &[u8]) -> u32 {
        debug_assert!(blocks.len() >= 64 && blocks.len().is_multiple_of(16));
        let (wide, rest) = blocks.split_at(blocks.len() & !63);
        let mut quads = wide.chunks_exact(64);
        let first = quads.next().expect("at least 64 bytes");
        // Four lanes, 16 bytes apart; the register joins the first.
        let mut lanes = [0, 16, 32, 48].map(|at| load(&first[at..]));
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for quad in quads {
            for (i, lane) in lanes.iter_mut().enumerate() {
                *lane = fold16(*lane, load(&quad[16 * i..]), k1k2);
            }
        }
        // The lanes into one, then the remaining blocks into that.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold16(lanes[0], lanes[1], k3k4);
        x = fold16(x, lanes[2], k3k4);
        x = fold16(x, lanes[3], k3k4);
        for block in rest.chunks_exact(16) {
            x = fold16(x, load(block), k3k4);
        }
        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(x, k3k4),
            _mm_srli_si128::<8>(x),
        );
        x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5)),
            _mm_srli_si128::<4>(x),
        );
        // Barrett reduction to 32 bits; reflected, so the register is
        // the second 32-bit word.
        let pmu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pmu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pmu);
        _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2))) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop both kernels replaced, kept as the
    /// reference they must agree with register for register.
    fn crc32_update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }

    #[test]
    fn crc32_known_value() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF43926);
    }

    /// A mebibyte and three bytes (so neither kernel ends on a block
    /// boundary) against a value taken from an independent
    /// implementation (zlib's `crc32`).
    #[test]
    fn crc32_known_answer_over_a_mebibyte() {
        let data: Vec<u8> = (0..(1u32 << 20) + 3)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        assert_eq!(crc32(&data), KNOWN_MEBIBYTE_CRC);
        assert_eq!(!update_tables(CRC_INIT, &data), KNOWN_MEBIBYTE_CRC);
    }

    const KNOWN_MEBIBYTE_CRC: u32 = 0x9abe_bc60;

    type Kernel = fn(u32, &[u8]) -> u32;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Both the dispatching function and the table kernel, against
        /// the bytewise loop: at every length up to twice the folding
        /// threshold plus a block (so across 16, 64 and 127/128/129
        /// bytes) and at one past 64 KiB; each at all 16 offsets into
        /// its allocation, from a random register; and each length
        /// summed in two calls split at a random point — the
        /// running-register contract `frame_crc` (kind byte, then
        /// payload) relies on.
        #[test]
        fn crc_kernel_matches_the_bytewise_loop(
            buf in proptest::collection::vec(proptest::prelude::any::<u8>(), 65_552..66_576),
            seed in proptest::prelude::any::<u32>(),
            splits in proptest::prelude::any::<u64>(),
        ) {
            let long = buf.len() - 16;
            let kernels: [(&str, Kernel); 2] =
                [("dispatch", crc32_update), ("tables", update_tables)];
            for len in (0..=2 * CLMUL_MIN + 16).chain([long]) {
                for align in 0..16 {
                    let data = &buf[align..align + len];
                    let want = crc32_update_bytewise(seed, data);
                    for (name, kernel) in kernels {
                        proptest::prop_assert!(
                            kernel(seed, data) == want,
                            "{name} differs from the bytewise loop on {len} bytes at offset {align}"
                        );
                    }
                }
                let data = &buf[..len];
                let split = (splits.rotate_left(len as u32) % (len as u64 + 1)) as usize;
                let (head, tail) = data.split_at(split);
                let whole = crc32_update_bytewise(seed, data);
                for (name, kernel) in kernels {
                    proptest::prop_assert!(
                        kernel(kernel(seed, head), tail) == whole,
                        "{name}: two calls split at {split} of {len} bytes differ from one"
                    );
                }
            }
        }
    }
}

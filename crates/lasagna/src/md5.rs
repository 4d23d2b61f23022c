//! MD5 (RFC 1321), implemented from scratch.
//!
//! Lasagna stores an MD5 digest of every data write in the provenance
//! log so that recovery can identify data whose provenance is
//! inconsistent after a crash (paper §5.6). The algorithm is
//! reimplemented here rather than pulled in as a dependency because
//! the crate allow-list has no hash crate — and MD5 is small.

/// Output size of MD5 in bytes.
pub const DIGEST_LEN: usize = 16;

/// A 16-byte MD5 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0xd76aa478, 0xe8c7b756, 0x242070db, 0xc1bdceee, 0xf57c0faf, 0x4787c62a, 0xa8304613, 0xfd469501,
    0x698098d8, 0x8b44f7af, 0xffff5bb1, 0x895cd7be, 0x6b901122, 0xfd987193, 0xa679438e, 0x49b40821,
    0xf61e2562, 0xc040b340, 0x265e5a51, 0xe9b6c7aa, 0xd62f105d, 0x02441453, 0xd8a1e681, 0xe7d3fbc8,
    0x21e1cde6, 0xc33707d6, 0xf4d50d87, 0x455a14ed, 0xa9e3e905, 0xfcefa3f8, 0x676f02d9, 0x8d2a4c8a,
    0xfffa3942, 0x8771f681, 0x6d9d6122, 0xfde5380c, 0xa4beea44, 0x4bdecfa9, 0xf6bb4b60, 0xbebfbc70,
    0x289b7ec6, 0xeaa127fa, 0xd4ef3085, 0x04881d05, 0xd9d4d039, 0xe6db99e5, 0x1fa27cf8, 0xc4ac5665,
    0xf4292244, 0x432aff97, 0xab9423a7, 0xfc93a039, 0x655b59c3, 0x8f0ccc92, 0xffeff47d, 0x85845dd1,
    0x6fa87e4f, 0xfe2ce6e0, 0xa3014314, 0x4e0811a1, 0xf7537e82, 0xbd3af235, 0x2ad7d2bb, 0xeb86d391,
];

/// Folds one 64-byte block into `state`: the four rounds unrolled, so
/// every message index, additive constant and rotate count is a
/// literal and the four working words stay in registers.
///
/// Each step is `a = b + rotl(a + round(b, c, d) + K + m, s)`, and `b`
/// is the word the step before produced, so the steps form one serial
/// chain. The round functions are written to put as little of
/// themselves on that chain as possible: whatever does not read `b`
/// is summed into `a + K + m` beside it.
fn compress(state: &mut [u32; 4], block: &[u8; 64]) {
    let mut m = [0u32; 16];
    for (w, bytes) in m.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    let [mut a, mut b, mut c, mut d] = *state;
    // round!(what waits for `b`; what does not): the two are added,
    // which for `g` — `(d & b) | (!d & c)`, two masks that share no
    // bit — is the same as the `|` RFC 1321 writes.
    macro_rules! round {
        (f, $b:ident, $c:ident, $d:ident) => {
            ($d ^ ($b & ($c ^ $d)), 0)
        };
        (g, $b:ident, $c:ident, $d:ident) => {
            ($d & $b, !$d & $c)
        };
        (h, $b:ident, $c:ident, $d:ident) => {
            ($b ^ ($c ^ $d), 0)
        };
        (i, $b:ident, $c:ident, $d:ident) => {
            ($c ^ ($b | !$d), 0)
        };
    }
    macro_rules! step {
        ($f:ident, $a:ident, $b:ident, $c:ident, $d:ident, $g:literal, $k:literal, $s:literal) => {
            let (late, early) = round!($f, $b, $c, $d);
            $a = $a
                .wrapping_add(K[$k])
                .wrapping_add(m[$g])
                .wrapping_add(early)
                .wrapping_add(late)
                .rotate_left($s)
                .wrapping_add($b);
        };
    }
    // step!(round, a b c d rotated, message word, constant, rotate)
    step!(f, a, b, c, d, 0, 0, 7);
    step!(f, d, a, b, c, 1, 1, 12);
    step!(f, c, d, a, b, 2, 2, 17);
    step!(f, b, c, d, a, 3, 3, 22);
    step!(f, a, b, c, d, 4, 4, 7);
    step!(f, d, a, b, c, 5, 5, 12);
    step!(f, c, d, a, b, 6, 6, 17);
    step!(f, b, c, d, a, 7, 7, 22);
    step!(f, a, b, c, d, 8, 8, 7);
    step!(f, d, a, b, c, 9, 9, 12);
    step!(f, c, d, a, b, 10, 10, 17);
    step!(f, b, c, d, a, 11, 11, 22);
    step!(f, a, b, c, d, 12, 12, 7);
    step!(f, d, a, b, c, 13, 13, 12);
    step!(f, c, d, a, b, 14, 14, 17);
    step!(f, b, c, d, a, 15, 15, 22);

    step!(g, a, b, c, d, 1, 16, 5);
    step!(g, d, a, b, c, 6, 17, 9);
    step!(g, c, d, a, b, 11, 18, 14);
    step!(g, b, c, d, a, 0, 19, 20);
    step!(g, a, b, c, d, 5, 20, 5);
    step!(g, d, a, b, c, 10, 21, 9);
    step!(g, c, d, a, b, 15, 22, 14);
    step!(g, b, c, d, a, 4, 23, 20);
    step!(g, a, b, c, d, 9, 24, 5);
    step!(g, d, a, b, c, 14, 25, 9);
    step!(g, c, d, a, b, 3, 26, 14);
    step!(g, b, c, d, a, 8, 27, 20);
    step!(g, a, b, c, d, 13, 28, 5);
    step!(g, d, a, b, c, 2, 29, 9);
    step!(g, c, d, a, b, 7, 30, 14);
    step!(g, b, c, d, a, 12, 31, 20);

    step!(h, a, b, c, d, 5, 32, 4);
    step!(h, d, a, b, c, 8, 33, 11);
    step!(h, c, d, a, b, 11, 34, 16);
    step!(h, b, c, d, a, 14, 35, 23);
    step!(h, a, b, c, d, 1, 36, 4);
    step!(h, d, a, b, c, 4, 37, 11);
    step!(h, c, d, a, b, 7, 38, 16);
    step!(h, b, c, d, a, 10, 39, 23);
    step!(h, a, b, c, d, 13, 40, 4);
    step!(h, d, a, b, c, 0, 41, 11);
    step!(h, c, d, a, b, 3, 42, 16);
    step!(h, b, c, d, a, 6, 43, 23);
    step!(h, a, b, c, d, 9, 44, 4);
    step!(h, d, a, b, c, 12, 45, 11);
    step!(h, c, d, a, b, 15, 46, 16);
    step!(h, b, c, d, a, 2, 47, 23);

    step!(i, a, b, c, d, 0, 48, 6);
    step!(i, d, a, b, c, 7, 49, 10);
    step!(i, c, d, a, b, 14, 50, 15);
    step!(i, b, c, d, a, 5, 51, 21);
    step!(i, a, b, c, d, 12, 52, 6);
    step!(i, d, a, b, c, 3, 53, 10);
    step!(i, c, d, a, b, 10, 54, 15);
    step!(i, b, c, d, a, 1, 55, 21);
    step!(i, a, b, c, d, 8, 56, 6);
    step!(i, d, a, b, c, 15, 57, 10);
    step!(i, c, d, a, b, 6, 58, 15);
    step!(i, b, c, d, a, 13, 59, 21);
    step!(i, a, b, c, d, 4, 60, 6);
    step!(i, d, a, b, c, 11, 61, 10);
    step!(i, c, d, a, b, 2, 62, 15);
    step!(i, b, c, d, a, 9, 63, 21);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
}

/// Computes the MD5 digest of `data`.
///
/// Whole blocks are compressed where they lie; only the last partial
/// block is copied, into a stack buffer that also takes the padding
/// (a 0x80 byte, zeros, then the length in bits as a little-endian
/// u64, to a multiple of 64 bytes: one block, or two when fewer than
/// nine bytes are left in the first).
pub fn md5(data: &[u8]) -> Digest {
    let mut state: [u32; 4] = [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476];
    let mut blocks = data.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut state, block.try_into().expect("chunks_exact(64)"));
    }
    let rest = blocks.remainder();
    let mut tail = [0u8; 128];
    tail[..rest.len()].copy_from_slice(rest);
    tail[rest.len()] = 0x80;
    let padded = if rest.len() < 56 { 64 } else { 128 };
    let bit_len = (data.len() as u64).wrapping_mul(8);
    tail[padded - 8..padded].copy_from_slice(&bit_len.to_le_bytes());
    for block in tail[..padded].chunks_exact(64) {
        compress(&mut state, block.try_into().expect("chunks_exact(64)"));
    }
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// Formats a digest as lowercase hex.
pub fn to_hex(d: &Digest) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: [u32; 64] = [
        7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, 7, 12, 17, 22, //
        5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, 5, 9, 14, 20, //
        4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, 4, 11, 16, 23, //
        6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21, 6, 10, 15, 21,
    ];

    /// The rolled loop over a padded copy of the message that `md5`
    /// was until the capture path was optimised, straight from RFC
    /// 1321's description: the reference the streaming, unrolled
    /// function is compared against.
    fn md5_reference(data: &[u8]) -> Digest {
        let mut a0: u32 = 0x67452301;
        let mut b0: u32 = 0xefcdab89;
        let mut c0: u32 = 0x98badcfe;
        let mut d0: u32 = 0x10325476;

        let bit_len = (data.len() as u64).wrapping_mul(8);
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_le_bytes());

        for chunk in msg.chunks_exact(64) {
            let mut m = [0u32; 16];
            for (i, w) in chunk.chunks_exact(4).enumerate() {
                m[i] = u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            }
            let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
            for i in 0..64 {
                let (mut f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                f = f.wrapping_add(a).wrapping_add(K[i]).wrapping_add(m[g]);
                a = d;
                d = c;
                c = b;
                b = b.wrapping_add(f.rotate_left(S[i]));
            }
            a0 = a0.wrapping_add(a);
            b0 = b0.wrapping_add(b);
            c0 = c0.wrapping_add(c);
            d0 = d0.wrapping_add(d);
        }

        let mut out = [0u8; DIGEST_LEN];
        out[0..4].copy_from_slice(&a0.to_le_bytes());
        out[4..8].copy_from_slice(&b0.to_le_bytes());
        out[8..12].copy_from_slice(&c0.to_le_bytes());
        out[12..16].copy_from_slice(&d0.to_le_bytes());
        out
    }

    /// Every length that lands on, before or after a block or padding
    /// boundary, over bytes that differ position to position.
    #[test]
    fn streaming_md5_matches_the_reference_at_every_length_to_300() {
        let data: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=300 {
            assert_eq!(
                md5(&data[..len]),
                md5_reference(&data[..len]),
                "length {len}"
            );
        }
    }

    /// Seeded random contents and lengths up to 1 MB, from every
    /// alignment of the slice within its allocation.
    #[test]
    fn streaming_md5_matches_the_reference_on_seeded_random_inputs() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let pool: Vec<u8> = (0..(1 << 20) + 8).map(|_| next() as u8).collect();
        for case in 0..48 {
            let len = match case {
                0 => 1 << 20,
                1..=15 => (next() % (1 << 20)) as usize,
                _ => (next() % 4096) as usize,
            };
            let off = case % 8;
            let data = &pool[off..off + len];
            assert_eq!(
                md5(data),
                md5_reference(data),
                "{len} bytes at offset {off}"
            );
        }
    }

    // RFC 1321 appendix A.5 test suite.
    #[test]
    fn rfc1321_test_vectors() {
        let cases: &[(&str, &str)] = &[
            ("", "d41d8cd98f00b204e9800998ecf8427e"),
            ("a", "0cc175b9c0f1b6a831c399e269772661"),
            ("abc", "900150983cd24fb0d6963f7d28e17f72"),
            ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
            (
                "abcdefghijklmnopqrstuvwxyz",
                "c3fcd3d76192e4007dfb496cca67e13b",
            ),
            (
                "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
                "d174ab98d277d9f5a5611c2c9f419d9f",
            ),
            (
                "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
                "57edf4a22be3c955ac49da2e2107b67a",
            ),
        ];
        for (input, expect) in cases {
            assert_eq!(&to_hex(&md5(input.as_bytes())), expect, "md5({input:?})");
        }
    }

    #[test]
    fn padding_boundaries() {
        // Lengths straddling the 56-byte padding boundary exercise the
        // two-block path.
        for len in 54..=66 {
            let data = vec![b'x'; len];
            let d = md5(&data);
            // Sanity: digest differs from the digest of len+1 bytes.
            let d2 = md5(&vec![b'x'; len + 1]);
            assert_ne!(d, d2, "digests collide at length {len}");
        }
    }

    #[test]
    fn large_input_is_stable() {
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let d1 = md5(&data);
        let d2 = md5(&data);
        assert_eq!(d1, d2);
        assert_ne!(d1, md5(&data[..999_999]));
    }
}

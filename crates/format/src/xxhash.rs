//! XXH64 checksum.
//!
//! The format's per-chunk and footer checksums use the XXH64 algorithm — the
//! same one Parquet and LZ4 frames use for integrity — implemented here
//! directly because the build environment vendors no external crates. Only
//! the one-shot slice entry point is needed.

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2))
        .rotate_left(31)
        .wrapping_mul(PRIME_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME_1)
        .wrapping_add(PRIME_4)
}

/// One-shot XXH64 of `bytes` with the given `seed`.
pub fn xxh64(bytes: &[u8], seed: u64) -> u64 {
    let (stripes, tail) = bytes.as_chunks::<32>();
    let mut hash = if stripes.is_empty() {
        seed.wrapping_add(PRIME_5)
    } else {
        let mut acc = [
            seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
            seed.wrapping_add(PRIME_2),
            seed,
            seed.wrapping_sub(PRIME_1),
        ];
        for stripe in stripes {
            for (v, lane) in acc.iter_mut().zip(stripe.as_chunks::<8>().0) {
                *v = round(*v, u64::from_le_bytes(*lane));
            }
        }
        let [v1, v2, v3, v4] = acc;
        let mut hash = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        for v in acc {
            hash = merge_round(hash, v);
        }
        hash
    };
    hash = hash.wrapping_add(bytes.len() as u64); // CAST-OK: usize widens losslessly into u64 on supported targets
    let (words, mut tail) = tail.as_chunks::<8>();
    for word in words {
        hash = (hash ^ round(0, u64::from_le_bytes(*word)))
            .rotate_left(27)
            .wrapping_mul(PRIME_1)
            .wrapping_add(PRIME_4);
    }
    if let Some((word, rest)) = tail.split_first_chunk::<4>() {
        hash = (hash ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(PRIME_1))
            .rotate_left(23)
            .wrapping_mul(PRIME_2)
            .wrapping_add(PRIME_3);
        tail = rest;
    }
    for &byte in tail {
        hash = (hash ^ u64::from(byte).wrapping_mul(PRIME_5))
            .rotate_left(11)
            .wrapping_mul(PRIME_1);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^= hash >> 32;
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference implementation's published seed-0 vectors. The last
    /// input is 39 bytes: one 32-byte stripe, then the 8-, 4- and 1-byte
    /// tails.
    #[test]
    fn matches_the_published_vectors() {
        for (input, expected) in [
            (&b""[..], 0xEF46_DB37_51D8_E999),
            (b"a", 0xD24E_C4F1_A98C_6E5B),
            (b"abc", 0x44BC_2CF5_AD77_0999),
            (
                b"Nobody inspects the spammish repetition",
                0xFBCE_A83C_8A37_8BF1,
            ),
        ] {
            assert_eq!(
                xxh64(input, 0),
                expected,
                "{:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn deterministic_and_seeded() {
        let data = b"the quick brown fox jumps over the lazy dog";
        assert_eq!(xxh64(data, 0), xxh64(data, 0));
        assert_ne!(xxh64(data, 0), xxh64(data, 1));
        assert_ne!(xxh64(data, 0), xxh64(b"", 0));
    }

    #[test]
    fn sensitive_to_single_bit_flips_at_every_length() {
        // Cover every length class of the algorithm: empty, sub-4, sub-8,
        // sub-32 and the 32-byte stripe loop with ragged tails.
        for len in [0usize, 1, 3, 4, 7, 8, 15, 31, 32, 33, 64, 100] {
            let base: Vec<u8> = (0..len).map(|i| (i * 37) as u8).collect();
            let h = xxh64(&base, 0);
            for i in 0..len {
                let mut flipped = base.clone();
                flipped[i] ^= 0x01;
                assert_ne!(xxh64(&flipped, 0), h, "len {len} byte {i}");
            }
        }
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u64..1000 {
            seen.insert(xxh64(&i.to_le_bytes(), 0));
        }
        assert_eq!(seen.len(), 1000);
    }
}

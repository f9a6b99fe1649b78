//! Differential tests: the word-wide (SWAR) kernels must produce streams
//! byte-identical to the scalar reference codecs they replaced.
//!
//! The scalar loops live in `ariadne_compress::reference` (compiled via the
//! `scalar-reference` feature, which this crate's self dev-dependency turns
//! on for tests). Every corpus here is adversarial for a different part of
//! the scan:
//!
//! * splitmix64 noise — incompressible; exercises the no-match fast path and
//!   the hash-table collision behaviour;
//! * flip-loop pages — the lifetime suite's pathological writer: long runs
//!   with periodic single-byte flips, which lands mismatches in every byte
//!   lane of the 8-byte compare windows;
//! * all-zero pages — maximal-length matches and the BDI zeros encoding;
//! * page-tail misalignment — lengths straddling `PAGE_SIZE` and the 8-byte
//!   word size, so the word loop's scalar tail handles 0–7 leftover bytes.

use ariadne_compress::reference::scalar_codec;
use ariadne_compress::{Algorithm, ChunkSize, ChunkedCodec, PAGE_SIZE};
use proptest::prelude::*;

/// splitmix64 PRNG — statistically flat output, incompressible by design.
fn splitmix64_bytes(mut state: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        out.extend_from_slice(&z.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// A flip-loop page: a repetitive base pattern with one byte XOR-flipped per
/// "loop iteration", at a stride chosen to hit every lane of an 8-byte
/// compare window over successive iterations.
fn flip_loop_page(len: usize, stride: usize, rounds: usize) -> Vec<u8> {
    let mut page: Vec<u8> = (0..len).map(|i| ((i / 32) % 251) as u8).collect();
    let mut at = 0usize;
    for round in 0..rounds {
        if len == 0 {
            break;
        }
        at = (at + stride + round) % len;
        page[at] ^= 0xFF;
    }
    page
}

/// Periodic data with noise perturbations: dense match candidates,
/// adversarial for the lazy-match and chain-walk order.
fn periodic_with_noise(period: usize, len: usize, seed: u64) -> Vec<u8> {
    let noise = splitmix64_bytes(seed, len);
    (0..len)
        .map(|i| {
            let base = ((i / period) % 7 + i % period) as u8;
            if noise[i] < 12 {
                noise[i]
            } else {
                base
            }
        })
        .collect()
}

/// Every adversarial corpus from the issue, with page-tail misalignment
/// represented by lengths straddling PAGE_SIZE and the 8-byte word size.
fn corpora() -> Vec<(String, Vec<u8>)> {
    let mut all = Vec::new();
    for len in [
        0usize,
        1,
        7,
        8,
        9,
        63,
        64,
        65,
        PAGE_SIZE - 7,
        PAGE_SIZE - 1,
        PAGE_SIZE,
        PAGE_SIZE + 1,
        PAGE_SIZE + 9,
        3 * PAGE_SIZE + 5,
    ] {
        all.push((format!("noise-{len}"), splitmix64_bytes(len as u64, len)));
        all.push((format!("flip-{len}"), flip_loop_page(len, 97, 300)));
        all.push((format!("zeros-{len}"), vec![0u8; len]));
    }
    // Mixed page: compressible head, noise tail crossing the last word.
    let mut mixed = vec![7u8; PAGE_SIZE / 2];
    mixed.extend(splitmix64_bytes(42, PAGE_SIZE / 2 + 3));
    all.push(("mixed-head-tail".to_string(), mixed));
    all
}

#[test]
fn swar_streams_are_byte_identical_to_the_scalar_reference() {
    for (label, data) in corpora() {
        for algorithm in Algorithm::ALL {
            let swar = algorithm.codec();
            let scalar = scalar_codec(algorithm);
            let fast = swar.compress(&data).unwrap();
            let slow = scalar.compress(&data).unwrap();
            assert_eq!(fast, slow, "{algorithm} diverged on corpus {label}");
            // The appended form must match too (pre-seeded scratch).
            let mut seeded = vec![0xEE, 0xBB];
            swar.compress_into(&data, &mut seeded).unwrap();
            assert_eq!(&seeded[..2], &[0xEE, 0xBB]);
            assert_eq!(&seeded[2..], &fast[..], "{algorithm}/{label} append");
            // And the stream still decodes to the input.
            assert_eq!(swar.decompress(&fast, data.len()).unwrap(), data);
        }
    }
}

#[test]
fn compressed_len_only_matches_a_scalar_per_chunk_sweep() {
    // One page per corpus family keeps the full sweep (3 algorithms × 11
    // chunk sizes × corpora) fast enough for every CI run.
    let corpora = [
        ("noise", splitmix64_bytes(7, 2 * PAGE_SIZE + 11)),
        ("flip", flip_loop_page(2 * PAGE_SIZE + 11, 61, 500)),
        ("zeros", vec![0u8; 2 * PAGE_SIZE + 11]),
    ];
    let mut scratch = Vec::new();
    for (label, data) in &corpora {
        for algorithm in Algorithm::ALL {
            let scalar = scalar_codec(algorithm);
            for chunk in ChunkSize::figure6_sweep() {
                let codec = ChunkedCodec::new(algorithm, chunk);
                let lens = codec.compressed_len_only(data, &mut scratch).unwrap();
                let expected: usize = data
                    .chunks(chunk.bytes())
                    .map(|piece| scalar.compress(piece).unwrap().len().min(piece.len()))
                    .sum();
                assert_eq!(
                    lens.compressed_len, expected,
                    "{algorithm} chunk {chunk} diverged on {label}"
                );
                assert_eq!(lens.original_len, data.len());
            }
        }
    }
}

/// One byte past the largest chunk size, so every chunk size of the Figure 6
/// sweep — 64 KiB and 128 KiB included — sees full chunks and a tail.
const FULL_SWEEP_LEN: usize = 128 * 1024 + 1;

/// The scalar reference's stored length of `data` in `chunk`-byte pieces.
fn scalar_stored_len(data: &[u8], chunk: ChunkSize) -> usize {
    let scalar = scalar_codec(Algorithm::Lzo);
    data.chunks(chunk.bytes())
        .map(|piece| scalar.compress(piece).unwrap().len().min(piece.len()))
        .sum()
}

#[test]
fn lzo_compressed_len_only_matches_the_scalar_reference_on_full_chunks() {
    // Every chunk size is full at least once, so chunks at and beyond the
    // 64 KiB match-distance limit are pinned along with the smaller ones.
    let corpora = [
        ("noise", splitmix64_bytes(11, FULL_SWEEP_LEN)),
        ("flip", flip_loop_page(FULL_SWEEP_LEN, 61, 4000)),
        ("zeros", vec![0u8; FULL_SWEEP_LEN]),
    ];
    let mut scratch = Vec::new();
    for (label, data) in &corpora {
        for chunk in ChunkSize::figure6_sweep() {
            let lens = ChunkedCodec::new(Algorithm::Lzo, chunk)
                .compressed_len_only(data, &mut scratch)
                .unwrap();
            assert_eq!(
                lens.compressed_len,
                scalar_stored_len(data, chunk),
                "lzo chunk {chunk} diverged on {label}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn lzo_compressed_len_only_matches_the_scalar_reference_on_random_buffers(
        (len, period, seed, repetitive) in
            (0usize..70_000, 1usize..96, any::<u64>(), any::<bool>()),
    ) {
        // Lengths span the 64 KiB match-distance limit; one 128 KiB chunk
        // holds the whole buffer.
        let data = if repetitive {
            periodic_with_noise(period, len, seed)
        } else {
            splitmix64_bytes(seed, len)
        };
        let mut scratch = Vec::new();
        let counted = ChunkedCodec::new(Algorithm::Lzo, ChunkSize::k128())
            .compressed_len_only(&data, &mut scratch)
            .unwrap();
        prop_assert_eq!(counted.compressed_len, scalar_stored_len(&data, ChunkSize::k128()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_buffers_compress_identically(
        data in proptest::collection::vec(any::<u8>(), 0..6000),
    ) {
        for algorithm in Algorithm::ALL {
            let fast = algorithm.codec().compress(&data).unwrap();
            let slow = scalar_codec(algorithm).compress(&data).unwrap();
            prop_assert_eq!(&fast, &slow, "{} diverged", algorithm);
        }
    }

    #[test]
    fn random_repetitive_buffers_compress_identically(
        (period, len, seed) in (1usize..96, 0usize..5000, any::<u64>()),
    ) {
        let data = periodic_with_noise(period, len, seed);
        for algorithm in Algorithm::ALL {
            let fast = algorithm.codec().compress(&data).unwrap();
            let slow = scalar_codec(algorithm).compress(&data).unwrap();
            prop_assert_eq!(&fast, &slow, "{} diverged", algorithm);
        }
    }
}

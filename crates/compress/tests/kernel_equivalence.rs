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

/// LZO's 14-bit multiplicative hash of a 4-byte little-endian word, as the
/// kernel and `reference::ScalarLzo` compute it for every position.
fn lzo_hash(word: u32) -> u32 {
    word.wrapping_mul(2_654_435_761) >> (32 - 14)
}

/// The first `count` distinct words whose LZO hash index is `index`: every
/// one of them lands in the same head slot, so any two are a hash collision
/// unless they are the same word.
fn colliding_words(index: u32, count: usize) -> Vec<u32> {
    (0u32..)
        .filter(|&w| lzo_hash(w) == index)
        .take(count)
        .collect()
}

/// Word-aligned draws from a set of colliding words, with true repeats (an
/// earlier stretch copied forward) mixed in. Every aligned position hashes
/// to one slot, so chains run far past `MAX_CHAIN` and the nearest real
/// match is often more than 16 collisions back.
fn collision_chain_input(len: usize, seed: u64) -> Vec<u8> {
    let words = colliding_words(0x1A5B, 24);
    let mut data = Vec::with_capacity(len + 64);
    for draw in splitmix64_bytes(seed, 2 * len).chunks_exact(8) {
        let draw = u64::from_le_bytes(draw.try_into().expect("8-byte draw"));
        let aligned_words = data.len() / 4;
        if draw % 5 == 0 && aligned_words >= 16 {
            // A true repeat: 2..=15 earlier words copied forward.
            let copy = 2 + (draw / 5 % 14) as usize;
            let from = (draw >> 32) as usize % (aligned_words - copy + 1);
            data.extend_from_within(4 * from..4 * (from + copy));
        } else {
            data.extend_from_slice(&words[(draw >> 8) as usize % words.len()].to_le_bytes());
        }
        if data.len() >= len {
            break;
        }
    }
    data.truncate(len);
    data
}

#[test]
fn lzo_streams_match_the_scalar_reference_on_collision_chains() {
    let lzo = scalar_codec(Algorithm::Lzo);
    let data = collision_chain_input(64 * 1024 + 7, 13);
    // The corpus must really exercise the cutoff: some aligned word's
    // nearest earlier copy sits more than `MAX_CHAIN` same-slot positions
    // back, behind collisions.
    let words: Vec<u32> = data
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect();
    let beyond_cutoff = (0..words.len()).any(|i| {
        let same_slot = words[..i]
            .iter()
            .rev()
            .take_while(|&&w| w != words[i])
            .filter(|&&w| lzo_hash(w) == lzo_hash(words[i]))
            .count();
        same_slot > 16 && words[..i].contains(&words[i])
    });
    assert!(beyond_cutoff, "no chain runs past the cutoff");
    for chunk in [1024usize, 4096, 16 * 1024, 64 * 1024] {
        for (index, piece) in data.chunks(chunk).enumerate() {
            let fast = Algorithm::Lzo.codec().compress(piece).unwrap();
            let slow = lzo.compress(piece).unwrap();
            assert_eq!(fast, slow, "chunk {chunk} piece {index} diverged");
        }
    }
}

/// Where the last match token of an LZO stream starts in the decoded
/// output, or `None` for an all-literal stream. (A match longer than one
/// token would report its last token; the inputs below are too short.)
fn last_match_start(stream: &[u8]) -> Option<usize> {
    let (mut at, mut out, mut last) = (0usize, 0usize, None);
    while at < stream.len() {
        let token = stream[at];
        if token & 0x80 == 0 {
            let run = (token & 0x7F) as usize + 1;
            at += 1 + run;
            out += run;
        } else {
            last = Some(out);
            at += 3;
            out += (token & 0x7F) as usize + 4;
        }
    }
    last
}

#[test]
fn lzo_streams_match_the_scalar_reference_when_the_last_match_ends_the_input() {
    // `n - 4` is the one position that is queried but never inserted, and a
    // match found at `n - 5` sends its lazy query there. Two families place
    // the last match at either position for every length: a byte run after
    // distinct bytes (distance 1), and the input's first bytes copied to its
    // end (the longest distance the length allows).
    let lzo = scalar_codec(Algorithm::Lzo);
    for n in 5usize..=40 {
        let distinct = |k: usize| (0..k).map(|i| 100 + i as u8);
        let mut inputs = Vec::new();
        for run in [5usize, 6] {
            if run <= n {
                inputs.push(
                    distinct(n - run)
                        .chain(std::iter::repeat(b'a').take(run))
                        .collect(),
                );
            }
        }
        for copy in [4usize, 5] {
            if 2 * copy <= n {
                let mut data: Vec<u8> = distinct(n - copy).collect();
                data.extend_from_within(..copy);
                inputs.push(data);
            }
        }
        let mut starts = Vec::new();
        for data in inputs {
            let fast = Algorithm::Lzo.codec().compress(&data).unwrap();
            let slow = lzo.compress(&data).unwrap();
            assert_eq!(fast, slow, "length {n} diverged on {data:?}");
            starts.extend(last_match_start(&fast));
        }
        assert!(starts.contains(&(n - 4)), "length {n}: no match at n - 4");
        if n > 5 {
            assert!(starts.contains(&(n - 5)), "length {n}: no match at n - 5");
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

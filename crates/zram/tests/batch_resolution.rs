//! Batch resolution may only move codec work, never change what the oracle
//! reports: driving the same victim batches through
//! `SchemeContext::resolve_batch` + `compress_pages_in` and through plain
//! per-group `compress_pages` must yield identical outcomes and identical
//! oracle counters — hits, misses, bytes saved and evictions — whatever the
//! oracle's configuration.

use ariadne_compress::{Algorithm, ChunkSize};
use ariadne_mem::PageId;
use ariadne_trace::{AppName, WorkloadBuilder};
use ariadne_zram::fanout::host_cores;
use ariadne_zram::{CompressionOracle, OracleHandle, OracleOutcome, OracleStats, SchemeContext};

type Batch = Vec<(Vec<PageId>, ChunkSize)>;

fn context(oracle: CompressionOracle) -> (SchemeContext, Vec<PageId>) {
    let workloads = vec![
        WorkloadBuilder::new(5).scale(1024).build(AppName::Twitter),
        WorkloadBuilder::new(5).scale(1024).build(AppName::Youtube),
    ];
    // One shard, so an entry cap is one strict LRU over the whole batch.
    let ctx =
        SchemeContext::new(5, &workloads).with_oracle_handle(&OracleHandle::with_shards(oracle, 1));
    let pages = workloads[0].pages.iter().map(|p| p.page).collect();
    (ctx, pages)
}

/// Three reclaim batches in the shapes the schemes produce: multi-page
/// cold groups, single pages, and a later batch that revisits earlier
/// groups (hits) among new ones. The first batch repeats a group, as a
/// batch that picked the same pages twice would.
fn batches(pages: &[PageId]) -> Vec<Batch> {
    let group =
        |from: usize, len: usize, chunk: ChunkSize| (pages[from..from + len].to_vec(), chunk);
    vec![
        vec![
            group(0, 4, ChunkSize::k16()),
            group(4, 4, ChunkSize::k16()),
            group(8, 1, ChunkSize::k4()),
            group(0, 4, ChunkSize::k16()),
            group(9, 2, ChunkSize::k2()),
            group(11, 1, ChunkSize::k1()),
        ],
        (12..20).map(|i| group(i, 1, ChunkSize::k4())).collect(),
        vec![
            group(4, 4, ChunkSize::k16()),
            group(12, 1, ChunkSize::k4()),
            group(20, 4, ChunkSize::k16()),
            group(0, 4, ChunkSize::k16()),
            group(24, 2, ChunkSize::k2()),
        ],
    ]
}

/// Drive [`batches`] through both paths, asserting identical outcomes and
/// counters after every batch; returns the final counters.
fn assert_batches_match_per_group_consultation(
    make: fn() -> CompressionOracle,
    label: &str,
) -> OracleStats {
    let (batched, pages) = context(make());
    let (direct, _) = context(make());
    let mut resolved_any = false;
    for (index, batch) in batches(&pages).iter().enumerate() {
        let resolved = batched.resolve_batch(
            batch
                .iter()
                .map(|(pages, chunk)| (pages.as_slice(), *chunk)),
            Algorithm::Lzo,
        );
        resolved_any |= !resolved.is_empty();
        let via_batch: Vec<OracleOutcome> = batch
            .iter()
            .map(|(pages, chunk)| {
                batched.compress_pages_in(&resolved, pages, Algorithm::Lzo, *chunk)
            })
            .collect();
        let per_group: Vec<OracleOutcome> = batch
            .iter()
            .map(|(pages, chunk)| direct.compress_pages(pages, Algorithm::Lzo, *chunk))
            .collect();
        assert_eq!(via_batch, per_group, "{label}: batch {index} outcomes");
        assert_eq!(
            batched.oracle_stats(),
            direct.oracle_stats(),
            "{label}: oracle counters after batch {index}"
        );
    }
    if host_cores() > 1 {
        // With a spare core, the batches above must really have been
        // resolved ahead, or this test would only compare the inline path
        // with itself.
        assert!(resolved_any, "{label}: no batch was resolved ahead");
    }
    direct.oracle_stats()
}

#[test]
fn batch_resolution_matches_per_group_consultation_with_the_default_oracle() {
    let stats = assert_batches_match_per_group_consultation(CompressionOracle::new, "default");
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
}

#[test]
fn batch_resolution_matches_per_group_consultation_when_evicting_within_a_batch() {
    fn capped() -> CompressionOracle {
        CompressionOracle::new().with_max_entries(2)
    }
    let stats = assert_batches_match_per_group_consultation(capped, "max_entries(2)");
    assert!(stats.evictions > 0, "the cap must evict");
}

#[test]
fn batch_resolution_matches_per_group_consultation_with_a_disabled_oracle() {
    assert_batches_match_per_group_consultation(CompressionOracle::disabled, "disabled");
}

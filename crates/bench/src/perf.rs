//! The wall-clock perf-tracking harness behind `experiments --bench-json`.
//!
//! Every run of the harness records, per experiment cell, the *host*
//! wall-clock milliseconds the cell took (simulated time is a different
//! axis entirely and already byte-pinned by the determinism tests). The
//! resulting `BENCH_*.json` files form the repository's performance
//! trajectory: `BENCH_PR5.json` is the first recorded baseline,
//! `BENCH_PR6.json` the next point on the curve, and the CI bench-smoke
//! step fails when any cell regresses more than
//! [`DEFAULT_REGRESSION_FACTOR`]× over its recorded baseline (cells new
//! since the baseline are recorded but not gated).
//!
//! The JSON produced here is written and parsed by this module only (the
//! workspace deliberately carries no JSON dependency), so the parser is a
//! minimal exact-shape reader for the writer's output, with tests pinning
//! the round trip.

use ariadne_obs::json_escape;
use std::fmt::Write as _;
use std::time::Instant;

/// A cell's cost must stay under `baseline × factor`; 2× absorbs host noise
/// while still catching real regressions.
pub const DEFAULT_REGRESSION_FACTOR: f64 = 2.0;

/// One timed experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchCell {
    /// The experiment identifier (e.g. `fig10`).
    pub name: String,
    /// Host wall-clock the cell took, in milliseconds (the per-iteration
    /// mean when the cell was sampled more than once).
    pub millis: f64,
    /// Fastest single iteration, in milliseconds — the least-noisy figure
    /// for a repeated cell. `None` in reports written before the field
    /// existed (the parser accepts both shapes).
    pub min: Option<f64>,
    /// Population standard deviation across the iterations, in
    /// milliseconds; 0 for single-sample cells. `None` in old reports.
    pub stddev: Option<f64>,
    /// Where the cell's wall-clock went, attributed by the self-profiler
    /// (see [`ariadne_obs::profile`]). `None` in reports written before
    /// the profiler existed (BENCH_PR8 and earlier).
    pub phases: Option<PhaseMillis>,
}

/// Host wall-clock attribution of one cell across simulator phases, in
/// milliseconds. `other` is the remainder of the cell's total after the
/// instrumented phases — event dispatch glue, ledger bookkeeping, table
/// rendering.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseMillis {
    /// Compression/decompression codec work (cost charging included).
    pub codec: f64,
    /// Zpool slab and LRU bookkeeping.
    pub zpool: f64,
    /// Flash I/O model (submission, retirement, fault-in).
    pub io: f64,
    /// Event-queue pushes and pops.
    pub queue: f64,
    /// Everything the profiler did not attribute.
    pub other: f64,
}

/// Provenance of one `BENCH_*.json` document: enough to tell whose machine
/// the wall-clock numbers came from. `None` when parsing reports recorded
/// before the field existed (BENCH_PR8 and earlier).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchMeta {
    /// `git describe --always --dirty` of the tree that ran (or `unknown`).
    pub commit: String,
    /// Hostname of the recording machine (or `unknown`).
    pub host: String,
    /// Logical cores available to the run.
    pub cores: usize,
}

impl BenchMeta {
    /// Capture the current machine's provenance. Never fails: fields that
    /// cannot be determined read `unknown`.
    #[must_use]
    pub fn capture() -> Self {
        let commit = std::process::Command::new("git")
            .args(["describe", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string());
        let host = std::env::var("HOSTNAME")
            .ok()
            .filter(|s| !s.is_empty())
            .or_else(|| {
                std::process::Command::new("hostname")
                    .output()
                    .ok()
                    .filter(|o| o.status.success())
                    .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                    .filter(|s| !s.is_empty())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        BenchMeta {
            commit,
            host,
            cores,
        }
    }
}

/// The timing distribution [`time_cell_stable`] measured for one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTiming {
    /// Per-iteration mean, in milliseconds.
    pub mean: f64,
    /// Fastest iteration, in milliseconds.
    pub min: f64,
    /// Population standard deviation, in milliseconds (0 for one sample).
    pub stddev: f64,
    /// Iterations taken.
    pub samples: u32,
}

/// Everything one harness run records.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Seed the experiments ran with.
    pub seed: u64,
    /// Scale denominator the experiments ran with.
    pub scale: usize,
    /// `quick` or `full`.
    pub mode: String,
    /// Whether the memoized compression oracle was active.
    pub oracle: bool,
    /// Which machine and tree recorded the run. `None` in old reports.
    pub meta: Option<BenchMeta>,
    /// Per-cell wall-clock, in run order.
    pub cells: Vec<BenchCell>,
}

impl BenchReport {
    /// Total wall-clock across all cells, in milliseconds.
    #[must_use]
    pub fn total_millis(&self) -> f64 {
        self.cells.iter().map(|c| c.millis).sum()
    }

    /// The recorded cell named `name`, if present.
    #[must_use]
    pub fn cell(&self, name: &str) -> Option<&BenchCell> {
        self.cells.iter().find(|c| c.name == name)
    }

    /// Serialize to the `BENCH_*.json` format (deterministic key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"seed\":{},\"scale\":{},\"mode\":\"{}\",\"oracle\":{}",
            self.seed, self.scale, self.mode, self.oracle
        );
        if let Some(meta) = &self.meta {
            let _ = write!(
                out,
                ",\"meta\":{{\"commit\":{},\"host\":{},\"cores\":{}}}",
                json_escape(&meta.commit),
                json_escape(&meta.host),
                meta.cores
            );
        }
        out.push_str(",\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"millis\":{:.3}",
                cell.name, cell.millis
            );
            if let Some(min) = cell.min {
                let _ = write!(out, ",\"min\":{min:.3}");
            }
            if let Some(stddev) = cell.stddev {
                let _ = write!(out, ",\"stddev\":{stddev:.3}");
            }
            if let Some(phases) = cell.phases {
                let _ = write!(
                    out,
                    ",\"phases\":{{\"codec\":{:.3},\"zpool\":{:.3},\"io\":{:.3},\
                     \"queue\":{:.3},\"other\":{:.3}}}",
                    phases.codec, phases.zpool, phases.io, phases.queue, phases.other
                );
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Parse a `BENCH_*.json` document produced by [`BenchReport::to_json`]
    /// — any vintage of it. Reports recorded before `meta` and per-cell
    /// `phases` existed (BENCH_PR8 and earlier, including the pre-`min`
    /// BENCH_PR5–PR7 shape) parse with those fields as `None`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed field.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let seed = scalar_field(text, "seed")?
            .parse::<u64>()
            .map_err(|e| format!("bad seed: {e}"))?;
        let scale = scalar_field(text, "scale")?
            .parse::<usize>()
            .map_err(|e| format!("bad scale: {e}"))?;
        let mode = scalar_field(text, "mode")?;
        let oracle = scalar_field(text, "oracle")?
            .parse::<bool>()
            .map_err(|e| format!("bad oracle flag: {e}"))?;

        let meta = match object_field(text, "meta")? {
            Some(obj) => Some(BenchMeta {
                commit: scalar_field(obj, "commit")?,
                host: scalar_field(obj, "host")?,
                cores: scalar_field(obj, "cores")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad cores: {e}"))?,
            }),
            None => None,
        };

        let cells_key = text
            .find("\"cells\":")
            .ok_or_else(|| "missing field `cells`".to_string())?;
        let cells_at = text[cells_key..]
            .find('[')
            .ok_or_else(|| "field `cells` is not an array".to_string())?
            + cells_key;
        let mut cells = Vec::new();
        let mut rest = &text[cells_at + 1..];
        while let Some(obj_start) = rest.find('{') {
            let obj_end = matching_brace(rest, obj_start)?;
            let obj = &rest[obj_start..=obj_end];
            // `min`/`stddev` are optional: reports recorded before the
            // fields existed (BENCH_PR7 and earlier) parse as `None`.
            let optional = |key: &str| -> Result<Option<f64>, String> {
                match scalar_field(obj, key) {
                    Ok(text) => text
                        .parse::<f64>()
                        .map(Some)
                        .map_err(|e| format!("bad {key}: {e}")),
                    Err(_) => Ok(None),
                }
            };
            let phases = match object_field(obj, "phases")? {
                Some(ph) => {
                    let part = |key: &str| -> Result<f64, String> {
                        scalar_field(ph, key)?
                            .parse::<f64>()
                            .map_err(|e| format!("bad phase {key}: {e}"))
                    };
                    Some(PhaseMillis {
                        codec: part("codec")?,
                        zpool: part("zpool")?,
                        io: part("io")?,
                        queue: part("queue")?,
                        other: part("other")?,
                    })
                }
                None => None,
            };
            cells.push(BenchCell {
                name: scalar_field(obj, "name")?,
                millis: scalar_field(obj, "millis")?
                    .parse::<f64>()
                    .map_err(|e| format!("bad millis: {e}"))?,
                min: optional("min")?,
                stddev: optional("stddev")?,
                phases,
            });
            rest = &rest[obj_end + 1..];
        }
        Ok(BenchReport {
            seed,
            scale,
            mode,
            oracle,
            meta,
            cells,
        })
    }
}

/// Extract the scalar value of `"key":` from `text`: the run of characters
/// up to the next `,`, `}` or `]`, unquoted and trimmed. Scalar values
/// never contain those characters in this format, and every scalar key is
/// unique within the region it is searched in.
fn scalar_field(text: &str, key: &str) -> Result<String, String> {
    let marker = format!("\"{key}\":");
    let start = text
        .find(&marker)
        .ok_or_else(|| format!("missing field `{key}`"))?
        + marker.len();
    let rest = &text[start..];
    let end = rest
        .find([',', '}', ']'])
        .ok_or_else(|| format!("unterminated field `{key}`"))?;
    Ok(rest[..end].trim().trim_matches('"').to_string())
}

/// Extract the `{...}` object value of `"key":` from `text`, nested braces
/// included. `Ok(None)` when the key is absent (old reports).
fn object_field<'a>(text: &'a str, key: &str) -> Result<Option<&'a str>, String> {
    let marker = format!("\"{key}\":");
    let Some(at) = text.find(&marker) else {
        return Ok(None);
    };
    let open = at
        + marker.len()
        + text[at + marker.len()..]
            .find('{')
            .ok_or_else(|| format!("field `{key}` is not an object"))?;
    let close = matching_brace(text, open)?;
    Ok(Some(&text[open..=close]))
}

/// Index of the `}` matching the `{` at byte `open`, skipping string
/// literals (escapes included).
fn matching_brace(text: &str, open: usize) -> Result<usize, String> {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Ok(i);
                }
            }
            _ => {}
        }
    }
    Err("unterminated object".to_string())
}

/// Time one closure, returning `(its result, wall-clock milliseconds)`.
pub fn time_cell<T>(run: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = run();
    (result, start.elapsed().as_secs_f64() * 1000.0)
}

/// A cell faster than this is too short for one sample to mean anything —
/// scheduler jitter alone is a large fraction of the reading.
pub const MIN_SAMPLE_MILLIS: f64 = 10.0;

/// Hard cap on repeat iterations, so a pathologically fast cell cannot spin
/// the harness for long.
pub const MAX_SAMPLE_ITERATIONS: u32 = 64;

/// Time one closure with a noise floor: a run shorter than
/// [`MIN_SAMPLE_MILLIS`] is repeated (up to [`MAX_SAMPLE_ITERATIONS`] times)
/// until the *accumulated* measurement passes the floor, and the timing
/// distribution — per-iteration mean, fastest iteration and standard
/// deviation — is reported. Cells above the floor take exactly one sample
/// (`min == mean`, `stddev == 0`), like [`time_cell`]. This is what keeps
/// sub-10 ms quick-mode cells from failing the regression gate on pure
/// timer jitter: a 0.4 ms cell is sampled ~25 times and its mean is
/// stable, where a single sample could swing 3–4×; the recorded min and
/// stddev make the residual noise visible in the `BENCH_*.json`
/// trajectory instead of hiding inside the mean.
pub fn time_cell_stable<T>(mut run: impl FnMut() -> T) -> (T, CellTiming) {
    let mut samples: Vec<f64> = Vec::new();
    let start = Instant::now();
    let mut result = run();
    samples.push(start.elapsed().as_secs_f64() * 1000.0);
    let mut total = samples[0];
    while total < MIN_SAMPLE_MILLIS && samples.len() < MAX_SAMPLE_ITERATIONS as usize {
        let start = Instant::now();
        result = run();
        let sample = start.elapsed().as_secs_f64() * 1000.0;
        samples.push(sample);
        total += sample;
    }
    let n = samples.len() as f64;
    let mean = total / n;
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let variance = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
    (
        result,
        CellTiming {
            mean,
            min,
            stddev: variance.sqrt(),
            samples: samples.len() as u32,
        },
    )
}

impl BenchReport {
    /// Whether `baseline` was recorded under the same conditions as this
    /// run. Wall-clock is only comparable for matching (mode, scale, seed,
    /// oracle) — a full-mode or `--no-oracle` run measured against the
    /// committed quick-mode oracle-on baseline would report a wall of bogus
    /// regressions, so the harness refuses instead.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching field.
    pub fn comparable_with(&self, baseline: &BenchReport) -> Result<(), String> {
        let fields = [
            ("mode", self.mode.clone(), baseline.mode.clone()),
            ("scale", self.scale.to_string(), baseline.scale.to_string()),
            ("seed", self.seed.to_string(), baseline.seed.to_string()),
            (
                "oracle",
                self.oracle.to_string(),
                baseline.oracle.to_string(),
            ),
        ];
        for (name, current, recorded) in fields {
            if current != recorded {
                return Err(format!(
                    "baseline {name} mismatch: this run used {name}={current}, \
                     the baseline recorded {name}={recorded} — wall-clock is \
                     not comparable across configurations"
                ));
            }
        }
        Ok(())
    }
}

/// Compare a fresh run against a recorded baseline. Returns one message per
/// failure: a cell whose wall-clock exceeds `baseline × factor`, or a
/// baseline cell the current run did not record at all — a silently
/// vanished cell would otherwise freeze its baseline forever while the
/// gate reported green. Cells new since the baseline are ignored (new
/// experiments start their own trajectory).
#[must_use]
pub fn regressions(current: &BenchReport, baseline: &BenchReport, factor: f64) -> Vec<String> {
    let mut messages = Vec::new();
    for cell in &current.cells {
        let Some(base) = baseline.cell(&cell.name) else {
            continue;
        };
        // Sub-millisecond baselines are pure noise; hold them to a 1 ms
        // floor so a 0.2 ms → 0.5 ms jitter does not fail the build.
        let limit = (base.millis * factor).max(1.0);
        if cell.millis > limit {
            messages.push(format!(
                "{}: {:.1} ms exceeds {:.1} ms ({}x over the {:.1} ms baseline)",
                cell.name, cell.millis, limit, factor, base.millis
            ));
        }
    }
    for base in &baseline.cells {
        if current.cell(&base.name).is_none() {
            messages.push(format!(
                "{}: recorded in the baseline but missing from this run — \
                 renamed or dropped cells must update the committed baseline",
                base.name
            ));
        }
    }
    messages
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> BenchReport {
        BenchReport {
            seed: 7,
            scale: 256,
            mode: "quick".to_string(),
            oracle: true,
            meta: None,
            cells: vec![
                BenchCell {
                    name: "fig10".to_string(),
                    millis: 123.456,
                    min: None,
                    stddev: None,
                    phases: None,
                },
                BenchCell {
                    name: "lifecycle".to_string(),
                    millis: 42.0,
                    min: None,
                    stddev: None,
                    phases: None,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let original = report();
        let parsed = BenchReport::from_json(&original.to_json()).unwrap();
        assert_eq!(parsed, original);
        assert!((parsed.total_millis() - 165.456).abs() < 1e-9);
    }

    #[test]
    fn min_and_stddev_round_trip_and_old_reports_parse_without_them() {
        let mut original = report();
        original.cells[0].min = Some(100.125);
        original.cells[0].stddev = Some(4.5);
        let text = original.to_json();
        assert!(text.contains("\"min\":100.125"));
        assert!(text.contains("\"stddev\":4.500"));
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, original);
        // The second cell carried no distribution — the writer omits the
        // keys and the parser reads them back as `None`, exactly like a
        // report recorded before the fields existed.
        assert_eq!(parsed.cells[1].min, None);
        assert_eq!(parsed.cells[1].stddev, None);
    }

    #[test]
    fn meta_and_phases_round_trip() {
        let mut original = report();
        original.meta = Some(BenchMeta {
            commit: "939b36c-dirty".to_string(),
            host: "build-box".to_string(),
            cores: 16,
        });
        original.cells[0].phases = Some(PhaseMillis {
            codec: 60.25,
            zpool: 20.5,
            io: 10.125,
            queue: 2.75,
            other: 29.831,
        });
        let text = original.to_json();
        assert!(text.contains("\"meta\":{\"commit\":\"939b36c-dirty\""));
        assert!(text.contains("\"phases\":{\"codec\":60.250"));
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed, original);
        // The second cell carried no breakdown: parses back as `None`.
        assert_eq!(parsed.cells[1].phases, None);
    }

    #[test]
    fn meta_control_characters_are_escaped() {
        let mut original = report();
        original.meta = Some(BenchMeta {
            commit: "939b36c".to_string(),
            host: "build\t\"box\"".to_string(),
            cores: 2,
        });
        let text = original.to_json();
        assert!(text.contains("\"host\":\"build\\t\\\"box\\\"\""), "{text}");
        assert!(!text.contains('\t'), "a raw tab is invalid JSON: {text}");
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(parsed.cells, original.cells);
    }

    #[test]
    fn captured_meta_has_no_empty_fields() {
        let meta = BenchMeta::capture();
        assert!(!meta.commit.is_empty());
        assert!(!meta.host.is_empty());
        assert!(meta.cores >= 1);
    }

    #[test]
    fn reports_from_previous_prs_parse_with_the_new_fields_absent() {
        // The exact shapes committed as BENCH_PR5.json (no min/stddev) and
        // BENCH_PR8.json (min/stddev, no meta/phases): both vintages must
        // keep parsing so `--bench-compare` works against any baseline.
        let pr5 = "{\"seed\":7,\"scale\":256,\"mode\":\"quick\",\"oracle\":true,\
                   \"cells\":[{\"name\":\"fig10\",\"millis\":123.456}]}\n";
        let parsed = BenchReport::from_json(pr5).unwrap();
        assert_eq!(parsed.meta, None);
        assert_eq!(parsed.cells[0].min, None);
        assert_eq!(parsed.cells[0].phases, None);
        let pr8 = "{\"seed\":7,\"scale\":256,\"mode\":\"quick\",\"oracle\":true,\
                   \"cells\":[{\"name\":\"fig10\",\"millis\":123.456,\
                   \"min\":120.000,\"stddev\":2.000}]}\n";
        let parsed = BenchReport::from_json(pr8).unwrap();
        assert_eq!(parsed.meta, None);
        assert_eq!(parsed.cells[0].min, Some(120.0));
        assert_eq!(parsed.cells[0].phases, None);
        // And a new-format report downgrades cleanly for an old cell mix.
        let new = BenchReport {
            meta: Some(BenchMeta::default()),
            ..parsed
        };
        let reparsed = BenchReport::from_json(&new.to_json()).unwrap();
        assert_eq!(reparsed, new);
    }

    #[test]
    fn malformed_json_is_rejected_with_a_reason() {
        assert!(BenchReport::from_json("{}").unwrap_err().contains("seed"));
        assert!(
            BenchReport::from_json("{\"seed\":1,\"scale\":2,\"mode\":\"q\",\"oracle\":true}")
                .unwrap_err()
                .contains("cells")
        );
    }

    #[test]
    fn pretty_printed_json_with_spaces_still_parses() {
        let text = "{\"seed\": 7, \"scale\": 256, \"mode\": \"quick\", \"oracle\": true, \
                    \"cells\": [{\"name\": \"fig10\", \"millis\": 123.456}, \
                    {\"name\": \"lifecycle\", \"millis\": 42.0}]}";
        let parsed = BenchReport::from_json(text).unwrap();
        assert_eq!(parsed, report());
    }

    #[test]
    fn regressions_flag_only_cells_beyond_the_factor() {
        let baseline = report();
        let mut current = report();
        current.cells[0].millis = 123.456 * 2.1; // beyond 2x
        current.cells[1].millis = 42.0 * 1.9; // within 2x
        current.cells.push(BenchCell {
            name: "brand-new".to_string(),
            millis: 9999.0, // no baseline: ignored
            min: None,
            stddev: None,
            phases: None,
        });
        let messages = regressions(&current, &baseline, DEFAULT_REGRESSION_FACTOR);
        assert_eq!(messages.len(), 1);
        assert!(messages[0].starts_with("fig10:"));
    }

    #[test]
    fn a_cell_missing_from_the_current_run_fails_the_gate() {
        let baseline = report();
        let mut current = report();
        current.cells.remove(1); // `lifecycle` vanished from this run
        let messages = regressions(&current, &baseline, DEFAULT_REGRESSION_FACTOR);
        assert_eq!(messages.len(), 1);
        assert!(messages[0].starts_with("lifecycle:"), "{messages:?}");
        assert!(messages[0].contains("missing from this run"));
    }

    #[test]
    fn mismatched_recording_conditions_are_not_comparable() {
        let base = report();
        assert!(base.comparable_with(&report()).is_ok());
        let full = BenchReport {
            mode: "full".to_string(),
            ..report()
        };
        assert!(full.comparable_with(&base).unwrap_err().contains("mode"));
        let no_oracle = BenchReport {
            oracle: false,
            ..report()
        };
        assert!(no_oracle
            .comparable_with(&base)
            .unwrap_err()
            .contains("oracle"));
        let rescaled = BenchReport {
            scale: 64,
            ..report()
        };
        assert!(rescaled
            .comparable_with(&base)
            .unwrap_err()
            .contains("scale"));
    }

    #[test]
    fn tiny_baselines_get_a_noise_floor() {
        let baseline = BenchReport {
            cells: vec![BenchCell {
                name: "t".to_string(),
                millis: 0.2,
                min: None,
                stddev: None,
                phases: None,
            }],
            ..report()
        };
        let current = BenchReport {
            cells: vec![BenchCell {
                name: "t".to_string(),
                millis: 0.9, // 4.5x but under the 1 ms floor
                min: None,
                stddev: None,
                phases: None,
            }],
            ..report()
        };
        assert!(regressions(&current, &baseline, 2.0).is_empty());
    }

    #[test]
    fn time_cell_stable_repeats_fast_cells_and_reports_the_distribution() {
        let mut calls = 0u32;
        let (value, timing) = time_cell_stable(|| {
            calls += 1;
            calls
        });
        // A near-instant cell must be repeated up to the iteration cap, and
        // the reported per-iteration mean must stay near-instant (far below
        // the accumulated total).
        assert_eq!(value, calls);
        assert!(calls > 1, "sub-floor cells are repeated (ran {calls}x)");
        assert!(calls <= MAX_SAMPLE_ITERATIONS);
        assert_eq!(timing.samples, calls);
        assert!(timing.mean < MIN_SAMPLE_MILLIS);
        assert!(timing.min <= timing.mean, "the fastest run bounds the mean");
        assert!(timing.stddev >= 0.0 && timing.stddev.is_finite());
    }

    #[test]
    fn time_cell_stable_takes_one_sample_of_slow_cells() {
        let mut calls = 0u32;
        let (_, timing) = time_cell_stable(|| {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_millis(11));
        });
        assert_eq!(calls, 1, "cells above the floor are not repeated");
        assert!(timing.mean >= MIN_SAMPLE_MILLIS);
        assert_eq!(timing.samples, 1);
        assert!((timing.min - timing.mean).abs() < 1e-12);
        assert_eq!(timing.stddev, 0.0, "one sample has no spread");
    }

    #[test]
    fn time_cell_reports_positive_wall_clock() {
        let (value, millis) = time_cell(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(value, 7);
        assert!(millis >= 1.0);
    }
}

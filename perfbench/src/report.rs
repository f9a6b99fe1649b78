//! The result document: metrics, correctness counts and the ledger digest.

use std::fmt::{self, Write as _};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit (`s`, `ms`, `MB/s`, `count`, ...).
    pub unit: &'static str,
}

/// Whether `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Correctness checks and metrics of one benchmark run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Checks attempted.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metrics in reporting order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Count one check; `detail` describes it if it failed.
    pub fn check(&mut self, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(detail());
        }
    }

    /// Add a metric. A non-finite value or an illegal name is itself a
    /// failed check, and the value is reported as 0.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(valid_metric_name(&name), || {
            format!("illegal metric name {name:?}")
        });
        self.check(value.is_finite(), || {
            format!("{name} is not finite: {value}")
        });
        // `+ 0.0` turns the -0.0 of an empty f64 sum into 0.0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.metrics.push(Metric { name, value, unit });
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → `{value, unit}`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back as the same
            // f64, always with a decimal point or exponent.
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                metric.name, metric.value, metric.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// FNV-1a over everything written to it: the digest of the simulated
/// ledgers, equal for equal ledgers on any host.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// The digest so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for byte in s.bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A JSON value, parsed just far enough to check the result line.
    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Number(f64),
        Str(String),
        Object(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        text: &'a [u8],
        at: usize,
    }

    impl Parser<'_> {
        fn parse(text: &str) -> Result<Json, String> {
            let mut parser = Parser {
                text: text.as_bytes(),
                at: 0,
            };
            let value = parser.value()?;
            parser.skip_ws();
            if parser.at != parser.text.len() {
                return Err(format!("trailing text at {}", parser.at));
            }
            Ok(value)
        }

        fn skip_ws(&mut self) {
            while self.at < self.text.len() && self.text[self.at].is_ascii_whitespace() {
                self.at += 1;
            }
        }

        fn eat(&mut self, byte: u8) -> Result<(), String> {
            self.skip_ws();
            if self.text.get(self.at) == Some(&byte) {
                self.at += 1;
                Ok(())
            } else {
                Err(format!("expected {:?} at {}", byte as char, self.at))
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.skip_ws();
            match self.text.get(self.at) {
                Some(b'{') => self.object(),
                Some(b'"') => self.string().map(Json::Str),
                Some(b't') | Some(b'f') => {
                    let rest = &self.text[self.at..];
                    let value = rest.starts_with(b"true");
                    if !value && !rest.starts_with(b"false") {
                        return Err(format!("bad literal at {}", self.at));
                    }
                    self.at += if value { 4 } else { 5 };
                    Ok(Json::Bool(value))
                }
                _ => self.number(),
            }
        }

        fn object(&mut self) -> Result<Json, String> {
            self.eat(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.text.get(self.at) == Some(&b'}') {
                self.at += 1;
                return Ok(Json::Object(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.eat(b':')?;
                fields.push((key, self.value()?));
                self.skip_ws();
                match self.text.get(self.at) {
                    Some(b',') => self.at += 1,
                    Some(b'}') => {
                        self.at += 1;
                        return Ok(Json::Object(fields));
                    }
                    _ => return Err(format!("expected , or }} at {}", self.at)),
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.eat(b'"')?;
            let start = self.at;
            while self
                .text
                .get(self.at)
                .is_some_and(|&b| b != b'"' && b != b'\\')
            {
                self.at += 1;
            }
            let text =
                String::from_utf8(self.text[start..self.at].to_vec()).map_err(|e| e.to_string())?;
            self.eat(b'"')?;
            Ok(text)
        }

        fn number(&mut self) -> Result<Json, String> {
            let start = self.at;
            while self
                .text
                .get(self.at)
                .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
            {
                self.at += 1;
            }
            std::str::from_utf8(&self.text[start..self.at])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Number)
                .ok_or_else(|| format!("bad number at {start}"))
        }
    }

    fn field<'a>(object: &'a Json, key: &str) -> &'a Json {
        match object {
            Json::Object(fields) => {
                let mut found = fields.iter().filter(|(k, _)| k == key);
                let value = &found.next().expect("key present").1;
                assert!(found.next().is_none(), "key {key} repeated");
                value
            }
            other => panic!("not an object: {other:?}"),
        }
    }

    #[test]
    fn metric_names_follow_the_contract() {
        for good in [
            "run_s",
            "sim.step.io_complete.p99_ms",
            "compress.lzo_16k.mb_per_s",
            "9a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in ["", ".run", "_x", "run s", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn the_result_line_parses_and_round_trips_values() {
        let mut outcome = Outcome::default();
        outcome.check(true, String::new);
        outcome.metric("run_s", 1.234_567_890_123, "s");
        outcome.metric("kills", 3.0, "count");
        outcome.metric("tiny", 1e-9, "ms");
        let line = outcome.to_json();
        assert!(!line.contains('\n'));
        let doc = Parser::parse(&line).expect("result line parses");
        assert_eq!(field(&doc, "correct"), &Json::Bool(true));
        assert_eq!(field(&doc, "attempted"), &Json::Number(7.0));
        assert_eq!(field(&doc, "failed"), &Json::Number(0.0));
        let metrics = field(&doc, "metrics");
        let run = field(metrics, "run_s");
        assert_eq!(field(run, "value"), &Json::Number(1.234_567_890_123));
        assert_eq!(field(run, "unit"), &Json::Str("s".to_string()));
        assert_eq!(field(field(metrics, "tiny"), "value"), &Json::Number(1e-9));
    }

    #[test]
    fn bad_metrics_are_failed_checks_and_still_parse() {
        let mut outcome = Outcome::default();
        outcome.metric("ratio", f64::NAN, "ratio");
        outcome.metric("bad name", 1.0, "s");
        assert_eq!(outcome.failed, 2);
        let doc = Parser::parse(&outcome.to_json()).expect("result line parses");
        assert_eq!(field(&doc, "correct"), &Json::Bool(false));
        assert_eq!(
            field(field(field(&doc, "metrics"), "ratio"), "value"),
            &Json::Number(0.0)
        );
    }

    #[test]
    fn the_digest_depends_on_every_byte() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        write!(a, "ledger-1").expect("digest writes cannot fail");
        write!(b, "ledger-2").expect("digest writes cannot fail");
        assert_ne!(a.value(), b.value());
        let mut c = Digest::default();
        write!(c, "ledger-{}", 1).expect("digest writes cannot fail");
        assert_eq!(a.value(), c.value());
    }
}

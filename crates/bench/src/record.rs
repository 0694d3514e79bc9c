//! One-line JSON bench records, as `kernel_bench` writes them to
//! `BENCH_kernels.json`.
//!
//! The workspace has no serde (offline container), so records are
//! serialized by hand here: escaping, number formatting and the
//! append-not-clobber file behavior live in one place.
//!
//! Records are JSON Lines: one object per line, appended so the perf
//! trajectory accumulates across PRs.

use std::fmt::Write as _;

/// Builder for one JSON object, emitted as a single line.
pub struct JsonRecord {
    buf: String,
}

impl JsonRecord {
    /// Starts a record; every bench record leads with its bench name plus
    /// two provenance stamps — the active SIMD dispatch tier and the
    /// worker thread count — so every `BENCH_*.json` row is attributable
    /// to the kernel tier and parallelism it ran under.
    pub fn new(bench: &str) -> Self {
        let mut r = JsonRecord { buf: String::new() };
        r.buf.push('{');
        r.key("bench");
        r.push_str_value(bench);
        r.key("simd_level");
        r.push_str_value(ann_data::simd_level().name());
        r.key("threads");
        let _ = write!(r.buf, "{}", parlay::num_threads());
        r
    }

    fn key(&mut self, key: &str) {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
    }

    fn push_str_value(&mut self, v: &str) {
        self.buf.push('"');
        for c in v.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.buf, "\\u{:04x}", c as u32);
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// A string field (escaped).
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.push_str_value(v);
        self
    }

    /// An unsigned integer field.
    pub fn uint(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// A float field with fixed decimal places.
    pub fn float(mut self, key: &str, v: f64, decimals: usize) -> Self {
        self.key(key);
        let _ = write!(self.buf, "{v:.decimals$}");
        self
    }

    /// A boolean field.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Closes the record into one newline-terminated JSON line.
    pub fn finish(mut self) -> String {
        self.buf.push_str("}\n");
        self.buf
    }
}

/// Appends `line` to the JSON-lines file at `path` (creating it if
/// absent, never truncating — records accumulate across runs and PRs).
pub fn append_record(path: &str, line: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(line.as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_shape_and_escaping() {
        let line = JsonRecord::new("demo")
            .str("name", "a \"b\"\\c\n")
            .uint("n", 42)
            .float("qps", 1234.567, 1)
            .bool("ok", true)
            .finish();
        // The provenance stamps depend on the host/environment, so the
        // expected prefix is built from the same sources.
        let expected = format!(
            "{{\"bench\":\"demo\",\"simd_level\":\"{}\",\"threads\":{},\
             \"name\":\"a \\\"b\\\"\\\\c\\n\",\"n\":42,\
             \"qps\":1234.6,\"ok\":true}}\n",
            ann_data::simd_level().name(),
            parlay::num_threads()
        );
        assert_eq!(line, expected);
    }

    #[test]
    fn every_record_carries_provenance_stamps() {
        let line = JsonRecord::new("anything").finish();
        assert!(line.contains("\"simd_level\":\""));
        assert!(line.contains("\"threads\":"));
    }

    #[test]
    fn append_accumulates() {
        let dir = std::env::temp_dir().join("parlayann_record_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let path = path.to_str().unwrap();
        let _ = std::fs::remove_file(path);
        append_record(path, "{\"a\":1}\n").unwrap();
        append_record(path, "{\"a\":2}\n").unwrap();
        let content = std::fs::read_to_string(path).unwrap();
        assert_eq!(content.lines().count(), 2);
        let _ = std::fs::remove_file(path);
    }
}

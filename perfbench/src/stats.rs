//! Small numeric and formatting helpers shared by the parent and the
//! child processes: quantiles, the child → parent record format, and the
//! JSON the parent prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// One child process's result: named lists of numbers plus named text
/// fields, written one per line as `key<TAB>value value ...` (numbers) or
/// `key<TAB>=text` (text). Rust's float formatting round-trips, so numbers
/// survive the trip exactly.
#[derive(Clone, Debug, Default)]
pub struct Record {
    /// Numeric fields.
    pub nums: BTreeMap<String, Vec<f64>>,
    /// Text fields (stamps, digests, error messages).
    pub texts: BTreeMap<String, String>,
}

impl Record {
    /// Set a one-number field.
    pub fn set(&mut self, key: &str, v: f64) {
        self.nums.insert(key.to_string(), vec![v]);
    }

    /// Set a list field.
    pub fn set_list(&mut self, key: &str, v: Vec<f64>) {
        self.nums.insert(key.to_string(), v);
    }

    /// Set a text field (must not contain a newline).
    pub fn set_text(&mut self, key: &str, v: impl Into<String>) {
        let v: String = v.into();
        self.texts.insert(key.to_string(), v.replace('\n', " "));
    }

    /// The single number stored under `key`.
    pub fn get(&self, key: &str) -> Option<f64> {
        self.nums.get(key).and_then(|v| v.first().copied())
    }

    /// The list stored under `key` (empty when absent).
    pub fn list(&self, key: &str) -> &[f64] {
        self.nums.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The text stored under `key`.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.texts.get(key).map(String::as_str)
    }

    /// Serialize to the line format.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, vs) in &self.nums {
            out.push_str(k);
            out.push('\t');
            for (i, v) in vs.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                let _ = write!(out, "{v:?}");
            }
            out.push('\n');
        }
        for (k, t) in &self.texts {
            let _ = writeln!(out, "{k}\t={t}");
        }
        out
    }

    /// Parse the line format; lines without a tab are ignored.
    pub fn parse(text: &str) -> Result<Record, String> {
        let mut r = Record::default();
        for line in text.lines() {
            let Some((k, v)) = line.split_once('\t') else {
                continue;
            };
            if let Some(t) = v.strip_prefix('=') {
                r.texts.insert(k.to_string(), t.to_string());
            } else {
                let nums = v
                    .split_whitespace()
                    .map(|s| s.parse::<f64>().map_err(|e| format!("{k}: {s:?}: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                r.nums.insert(k.to_string(), nums);
            }
        }
        Ok(r)
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values have no JSON form and are a bug in
/// the caller.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn record_round_trips_exactly() {
        let mut r = Record::default();
        r.set("run_s", 0.1 + 0.2);
        r.set_list("iter_ms", vec![1.0 / 3.0, 2.5e-9, 7.0]);
        r.set_text("digest", "00ff");
        let back = Record::parse(&r.render()).unwrap();
        assert_eq!(back.get("run_s"), Some(0.1 + 0.2));
        assert_eq!(back.list("iter_ms"), &[1.0 / 3.0, 2.5e-9, 7.0]);
        assert_eq!(back.text("digest"), Some("00ff"));
    }
}

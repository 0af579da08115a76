//! The one writer behind every `BENCH_sample.json`-shaped row: a flat JSON
//! object with one `"key": value` pair per line, in call order, floats at
//! six decimals (`null` when not finite). ci.sh greps these lines, so the
//! layout is part of the format.

use std::fmt::{Display, Write as _};

/// A flat JSON object under construction (see the module docs).
pub(crate) struct Row(String);

impl Row {
    /// An empty object.
    pub(crate) fn new() -> Row {
        Row(String::from("{\n"))
    }

    /// Appends `key` with `value` written verbatim (integers, booleans).
    pub(crate) fn raw(mut self, key: &str, value: impl Display) -> Row {
        if self.0.len() > 2 {
            self.0.push_str(",\n");
        }
        let _ = write!(self.0, "  \"{key}\": {value}");
        self
    }

    /// Appends `key` with `value` as a JSON string (no escaping: keys and
    /// values here are workload names).
    pub(crate) fn str(self, key: &str, value: &str) -> Row {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// Appends `key` with `value` at six decimals, `null` if not finite.
    pub(crate) fn f64(self, key: &str, value: f64) -> Row {
        self.opt_f64(key, Some(value))
    }

    /// Appends `key` with `value` at six decimals, `null` if absent or not
    /// finite.
    pub(crate) fn opt_f64(self, key: &str, value: Option<f64>) -> Row {
        match value.filter(|v| v.is_finite()) {
            Some(v) => self.raw(key, format_args!("{v:.6}")),
            None => self.raw(key, "null"),
        }
    }

    /// Closes the object.
    pub(crate) fn finish(mut self) -> String {
        self.0.push_str("\n}\n");
        self.0
    }
}

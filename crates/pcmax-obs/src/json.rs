//! A minimal hand-rolled JSON writer.
//!
//! The workspace's serde is an offline no-op shim, so anything that must
//! actually appear on a wire or in a file is written by hand. This writer
//! produces compact (single-line) JSON and handles the only three things
//! that are easy to get wrong: comma placement, string escaping, and
//! non-finite floats (emitted as `null` — JSON has no NaN).

/// Push-based JSON writer. Call `begin_object`/`begin_array`, then `key`
/// and a value (or bare values inside arrays); commas are inserted
/// automatically.
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open container: whether a separator is needed before
    /// the next element.
    needs_comma: Vec<bool>,
    /// A key was just written; the next value follows `:` directly.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn sep(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(top) = self.needs_comma.last_mut() {
            if *top {
                self.buf.push(',');
            }
            *top = true;
        }
    }

    /// Writes `"key":` (inside an object).
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.sep();
        self.push_escaped(key);
        self.buf.push(':');
        self.after_key = true;
        self
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('{');
        self.needs_comma.push(false);
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.buf.push('[');
        self.needs_comma.push(false);
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.needs_comma.pop();
        self.buf.push(']');
        self
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        self.buf.push_str(&v.to_string());
        self
    }

    /// Writes a float value (`null` when non-finite).
    pub fn value_f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        if v.is_finite() {
            // Shortest round-trippable repr; integral values keep a `.0`
            // so consumers see a consistent number type.
            if v == v.trunc() && v.abs() < 1e15 {
                self.buf.push_str(&format!("{v:.1}"));
            } else {
                self.buf.push_str(&v.to_string());
            }
        } else {
            self.buf.push_str("null");
        }
        self
    }

    /// Writes a string value (escaped).
    pub fn value_str(&mut self, v: &str) -> &mut Self {
        self.sep();
        self.push_escaped(v);
        self
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// `key` + u64 value in one call.
    pub fn field_u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.key(key).value_u64(v)
    }

    /// `key` + f64 value in one call.
    pub fn field_f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.key(key).value_f64(v)
    }

    /// `key` + string value in one call.
    pub fn field_str(&mut self, key: &str, v: &str) -> &mut Self {
        self.key(key).value_str(v)
    }

    /// `key` + bool value in one call.
    pub fn field_bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.key(key).value_bool(v)
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for c in s.chars() {
            match c {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\r' => self.buf.push_str("\\r"),
                '\t' => self.buf.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    self.buf.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => self.buf.push(c),
            }
        }
        self.buf.push('"');
    }

    /// The accumulated JSON text.
    pub fn finish(self) -> String {
        debug_assert!(self.needs_comma.is_empty(), "unclosed container");
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_with_mixed_fields() {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_u64("a", 1)
            .field_str("b", "x\"y")
            .field_bool("c", true)
            .field_f64("d", 2.5)
            .end_object();
        assert_eq!(w.finish(), r#"{"a":1,"b":"x\"y","c":true,"d":2.5}"#);
    }

    #[test]
    fn nested_arrays_and_objects() {
        let mut w = JsonWriter::new();
        w.begin_object().key("xs").begin_array();
        for i in 0..3u64 {
            w.begin_object().field_u64("i", i).end_object();
        }
        w.end_array().end_object();
        assert_eq!(w.finish(), r#"{"xs":[{"i":0},{"i":1},{"i":2}]}"#);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut w = JsonWriter::new();
        w.begin_array()
            .value_f64(f64::NAN)
            .value_f64(f64::INFINITY)
            .value_f64(1.0)
            .end_array();
        assert_eq!(w.finish(), "[null,null,1.0]");
    }

    #[test]
    fn control_chars_are_escaped() {
        let mut w = JsonWriter::new();
        w.value_str("a\nb\u{1}c");
        assert_eq!(w.finish(), "\"a\\nb\\u0001c\"");
    }
}

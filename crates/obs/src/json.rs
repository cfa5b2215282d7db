//! A minimal deterministic JSON writer.
//!
//! Serde stays out of this workspace (zero-dependency policy), and report
//! JSON must be byte-stable across runs and platforms for golden-file
//! diffing: fields are emitted in the order the caller writes them and
//! floats are printed with a caller-chosen fixed number of decimals.

/// Streaming JSON writer with explicit object/array scoping.
///
/// ```
/// let mut w = mcl_obs::JsonWriter::new();
/// w.begin_object();
/// w.field_str("name", "demo");
/// w.field_u64("cells", 42);
/// w.key("ratio");
/// w.value_f64(0.5, 4);
/// w.end_object();
/// assert_eq!(w.finish(), r#"{"name":"demo","cells":42,"ratio":0.5000}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonWriter {
    buf: String,
    /// One entry per open scope: `true` once the scope has an element (so
    /// the next element needs a leading comma).
    scopes: Vec<bool>,
    /// Set between a `key()` and its value.
    after_key: bool,
}

impl JsonWriter {
    /// An empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the accumulated JSON text.
    #[must_use]
    pub fn finish(self) -> String {
        self.buf
    }

    fn separate(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_elem) = self.scopes.last_mut() {
            if *has_elem {
                self.buf.push(',');
            }
            *has_elem = true;
        }
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

    /// Opens an object (as a value).
    pub fn begin_object(&mut self) {
        self.separate();
        self.buf.push('{');
        self.scopes.push(false);
    }

    /// Closes the innermost object.
    pub fn end_object(&mut self) {
        self.scopes.pop();
        self.buf.push('}');
    }

    /// Opens an array (as a value).
    pub fn begin_array(&mut self) {
        self.separate();
        self.buf.push('[');
        self.scopes.push(false);
    }

    /// Closes the innermost array.
    pub fn end_array(&mut self) {
        self.scopes.pop();
        self.buf.push(']');
    }

    /// Writes an object key; the next write is its value.
    pub fn key(&mut self, k: &str) {
        self.separate();
        self.push_escaped(k);
        self.buf.push(':');
        self.after_key = true;
    }

    /// Writes a string value.
    pub fn value_str(&mut self, v: &str) {
        self.separate();
        self.push_escaped(v);
    }

    /// Writes an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.separate();
        self.buf.push_str(&v.to_string());
    }

    /// Writes a signed integer value.
    pub fn value_i64(&mut self, v: i64) {
        self.separate();
        self.buf.push_str(&v.to_string());
    }

    /// Writes a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.separate();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Writes a float with a fixed number of decimals. `-0.0` is
    /// normalized to `0.0`; non-finite values become `null` (JSON has no
    /// representation for them and reports must stay parseable).
    pub fn value_f64(&mut self, v: f64, decimals: usize) {
        self.separate();
        if v.is_finite() {
            let v = if v == 0.0 { 0.0 } else { v };
            self.buf.push_str(&format!("{v:.decimals$}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Writes a pre-serialized JSON value verbatim (no escaping). The
    /// caller guarantees `v` is one complete, valid JSON value — the wire
    /// layer uses this to embed an already-rendered `RunReport` document
    /// inside a response envelope without re-parsing it.
    pub fn value_raw(&mut self, v: &str) {
        self.separate();
        self.buf.push_str(v);
    }

    /// `key` + pre-serialized JSON value (see [`Self::value_raw`]).
    pub fn field_raw(&mut self, k: &str, v: &str) {
        self.key(k);
        self.value_raw(v);
    }

    /// `key` + string value.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.value_str(v);
    }

    /// `key` + unsigned integer value.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.value_u64(v);
    }

    /// `key` + fixed-decimal float value.
    pub fn field_f64(&mut self, k: &str, v: f64, decimals: usize) {
        self.key(k);
        self.value_f64(v, decimals);
    }

    /// `key` + boolean value.
    pub fn field_bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.value_bool(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_structures() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.field_str("a", "x\"y\\z\n");
        w.key("list");
        w.begin_array();
        w.value_u64(1);
        w.value_i64(-2);
        w.begin_object();
        w.field_bool("ok", true);
        w.end_object();
        w.end_array();
        w.field_f64("f", -0.0, 2);
        w.field_f64("g", f64::NAN, 2);
        w.end_object();
        assert_eq!(
            w.finish(),
            "{\"a\":\"x\\\"y\\\\z\\n\",\"list\":[1,-2,{\"ok\":true}],\"f\":0.00,\"g\":null}"
        );
    }

    #[test]
    fn empty_scopes() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("empty");
        w.begin_array();
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\"empty\":[]}");
    }
}

//! A minimal JSON writer — just enough for trace/telemetry export.
//!
//! The workspace has no registry access, so rather than pull a vendored
//! serializer into the hot telemetry path this module hand-rolls the two
//! things the crate emits: escaped strings and flat objects. Non-finite
//! floats serialize as `null` (JSON has no NaN/Inf).

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Incrementally builds one flat JSON object.
///
/// ```
/// let mut o = dgr_obs::json::JsonObject::new();
/// o.field_u64("iter", 3);
/// o.field_f32("loss", 1.5);
/// assert_eq!(o.finish(), r#"{"iter":3,"loss":1.5}"#);
/// ```
#[derive(Debug, Default)]
pub struct JsonObject {
    buf: String,
    any: bool,
}

impl JsonObject {
    /// Starts an empty object.
    pub fn new() -> Self {
        JsonObject {
            buf: String::from("{"),
            any: false,
        }
    }

    fn key(&mut self, name: &str) {
        if self.any {
            self.buf.push(',');
        }
        self.any = true;
        push_escaped(&mut self.buf, name);
        self.buf.push(':');
    }

    /// Adds an unsigned integer field.
    pub fn field_u64(&mut self, name: &str, v: u64) {
        self.key(name);
        self.buf.push_str(&v.to_string());
    }

    /// Adds an unsigned integer field that reads back exactly through
    /// [`crate::parse::JsonValue::as_u64_exact`]: a number below 2^53, a
    /// decimal string from there up, where a JSON number would round.
    pub fn field_u64_exact(&mut self, name: &str, v: u64) {
        if v < 1 << 53 {
            self.field_u64(name, v);
        } else {
            self.field_str(name, &v.to_string());
        }
    }

    /// Adds an `f32` field (`null` when non-finite).
    pub fn field_f32(&mut self, name: &str, v: f32) {
        self.key(name);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Adds an `f64` field (`null` when non-finite).
    pub fn field_f64(&mut self, name: &str, v: f64) {
        self.key(name);
        if v.is_finite() {
            self.buf.push_str(&format!("{v}"));
        } else {
            self.buf.push_str("null");
        }
    }

    /// Adds an optional unsigned integer field (`null` when `None`).
    pub fn field_opt_u64(&mut self, name: &str, v: Option<u64>) {
        self.key(name);
        match v {
            Some(v) => self.buf.push_str(&v.to_string()),
            None => self.buf.push_str("null"),
        }
    }

    /// Adds an `f32` array field (non-finite elements become `null`).
    pub fn field_f32_array(&mut self, name: &str, vs: &[f32]) {
        self.key(name);
        self.buf.push('[');
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            if v.is_finite() {
                self.buf.push_str(&format!("{v}"));
            } else {
                self.buf.push_str("null");
            }
        }
        self.buf.push(']');
    }

    /// Adds a string field.
    pub fn field_str(&mut self, name: &str, v: &str) {
        self.key(name);
        push_escaped(&mut self.buf, v);
    }

    /// Adds a pre-serialized JSON value verbatim (caller guarantees
    /// validity).
    pub fn field_raw(&mut self, name: &str, v: &str) {
        self.key(name);
        self.buf.push_str(v);
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        let mut s = String::new();
        push_escaped(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn object_round_trip_shape() {
        let mut o = JsonObject::new();
        o.field_u64("n", 7);
        o.field_f32("x", 0.5);
        o.field_f32("bad", f32::NAN);
        o.field_str("s", "hi");
        o.field_raw("arr", "[1,2]");
        assert_eq!(
            o.finish(),
            r#"{"n":7,"x":0.5,"bad":null,"s":"hi","arr":[1,2]}"#
        );
    }

    #[test]
    fn empty_object() {
        assert_eq!(JsonObject::new().finish(), "{}");
    }

    #[test]
    fn optional_and_array_fields() {
        let mut o = JsonObject::new();
        o.field_opt_u64("some", Some(9));
        o.field_opt_u64("none", None);
        o.field_f32_array("xs", &[1.0, 0.5, f32::INFINITY]);
        o.field_f32_array("empty", &[]);
        assert_eq!(
            o.finish(),
            r#"{"some":9,"none":null,"xs":[1,0.5,null],"empty":[]}"#
        );
    }
}

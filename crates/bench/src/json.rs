//! A small JSON value type: `bench_walk_scoring` builds its summary as one
//! [`Json`] and writes it with [`Json::pretty`]; the schema test reads the
//! committed file back with [`Json::parse`] and looks fields up by key path
//! with [`Json::at`].

use std::fmt;

/// A JSON value. Objects keep their keys in insertion order, so a written
/// document lists its fields in the order they were built. Numbers are
/// written to six significant digits, integers below 10^15 exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`. A missing (`None`) or non-finite number is written as `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: `(key, value)` pairs in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
        Json::Obj(fields.map(|(k, v)| (k.to_owned(), v)).into())
    }

    /// The value at a dot-separated path of object keys, e.g.
    /// `"early_termination.HT.queries"`.
    pub fn at(&self, path: &str) -> Option<&Json> {
        path.split('.').try_fold(self, |node, key| match node {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        })
    }

    /// Parse one JSON document. Anything but whitespace after the value is
    /// an error, and so is an unclosed string, array or object.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos < parser.bytes.len() {
            return Err(parser.error("trailing input"));
        }
        Ok(value)
    }

    /// The document indented by two spaces per level, ending in a newline.
    /// A container that holds no container stays on one line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Write the value on one line, or with each item of a container that
    /// holds a container on a line of its own at `indent`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        let (open, close, items): (char, char, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return out.push_str("null"),
            Json::Bool(b) => return out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if !v.is_finite() => return out.push_str("null"),
            Json::Num(v) => {
                let v: f64 = if v.fract() == 0.0 && v.abs() < 1e15 {
                    *v
                } else {
                    format!("{v:.5e}").parse().expect("a formatted f64 parses")
                };
                // Shortest digits, in exponent form only where the plain
                // form would be long.
                return out.push_str(&if v == 0.0 || (1e-3..1e15).contains(&v.abs()) {
                    format!("{v}")
                } else {
                    format!("{v:e}")
                });
            }
            Json::Str(s) => return write_str(out, s),
            Json::Arr(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Obj(fields) => (
                '{',
                '}',
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
            ),
        };
        let nested = items
            .iter()
            .any(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)));
        let indent = indent.filter(|_| nested);
        let line_start = |n: usize| indent.map_or(String::new(), |i| format!("\n{:1$}", "", i + n));
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push_str(if indent.is_some() { "," } else { ", " });
            }
            out.push_str(&line_start(2));
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, indent.map(|i| i + 2));
        }
        out.push_str(&line_start(0));
        out.push(close);
    }
}

/// The one-line form, `", "` and `": "` separated.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, None);
        f.write_str(&out)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<Option<f64>> for Json {
    fn from(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::Num)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let literal = |p: &mut Self, word: &str, value: Json| {
            let end = p.pos + word.len();
            if p.bytes.get(p.pos..end) != Some(word.as_bytes()) {
                return Err(p.error("invalid literal"));
            }
            p.pos = end;
            Ok(value)
        };
        match self.bytes.get(self.pos) {
            Some(b'{') => self
                .items(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    if p.next()? != b':' {
                        return Err(p.error("expected `:`"));
                    }
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.items(b']', Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => literal(self, "true", Json::Bool(true)),
            Some(b'f') => literal(self, "false", Json::Bool(false)),
            Some(b'n') => literal(self, "null", Json::Null),
            Some(_) => {
                let start = self.pos;
                while matches!(
                    self.bytes.get(self.pos),
                    Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
                ) {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| self.error("invalid number"))
            }
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.skip_ws();
            match self.next()? {
                b',' => {}
                b if b == close => return Ok(items),
                _ => return Err(self.error(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.next()? != b'"' {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            match self.next()? {
                b'"' => {
                    return Ok(String::from_utf8(out)
                        .expect("input is a str and escapes decode to whole chars"))
                }
                b'\\' => {
                    let c = match self.next()? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            self.pos += 4;
                            hex.and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("invalid \\u escape"))?
                        }
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b if b < 0x20 => return Err(self.error("control character in string")),
                b => out.push(b),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Json {
        Json::obj([
            ("text", r#"say "hi" \ bye"#.into()),
            ("control", "tab\tnewline\n".into()),
            ("unicode", "μ=300, τ=15".into()),
            (
                "numbers",
                Json::Arr(vec![
                    Json::from(-2.5),
                    (-1.25e-7).into(),
                    5e-324.into(),
                    1e300.into(),
                    0.0571279.into(),
                    64usize.into(),
                    0.0.into(),
                ]),
            ),
            (
                "nested",
                Json::obj([
                    ("empty_obj", Json::obj([])),
                    ("empty_arr", Json::Arr(Vec::new())),
                    (
                        "flags",
                        Json::Arr(vec![true.into(), false.into(), Json::Null]),
                    ),
                    ("deeper", Json::obj([("k", 10usize.into())])),
                ]),
            ),
        ])
    }

    #[test]
    fn write_then_parse_round_trips() {
        let doc = sample();
        for text in [doc.to_string(), doc.pretty()] {
            assert_eq!(Json::parse(&text), Ok(doc.clone()), "{text}");
        }
        assert_eq!(doc.at("nested.deeper.k"), Some(&Json::Num(10.0)));
        assert_eq!(doc.at("nested.deeper.missing"), None);
        assert_eq!(doc.at("text.not_an_object"), None);
    }

    #[test]
    fn numbers_are_written_to_six_significant_digits() {
        let written = |v: f64| Json::from(v).to_string();
        assert_eq!(written(1.2924266866884524), "1.29243");
        assert_eq!(written(0.05712793412), "0.0571279");
        assert_eq!(written(1.925e-6), "1.925e-6");
        assert_eq!(written(729_832.0), "729832");
        assert_eq!(written(123_456_789.0), "123456789");
        assert_eq!(written(-0.5), "-0.5");
    }

    #[test]
    fn non_finite_and_missing_numbers_are_written_as_null() {
        let doc = Json::obj([
            ("inf", f64::INFINITY.into()),
            ("neg_inf", f64::NEG_INFINITY.into()),
            ("nan", f64::NAN.into()),
            ("missing", None.into()),
            ("present", Some(0.5).into()),
        ]);
        assert_eq!(
            doc.to_string(),
            r#"{"inf": null, "neg_inf": null, "nan": null, "missing": null, "present": 0.5}"#
        );
    }

    #[test]
    fn every_truncation_and_trailing_input_is_an_error() {
        let text = sample().pretty();
        for cut in (0..text.trim_end().len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(
                Json::parse(&text[..cut]).is_err(),
                "prefix of {cut} bytes parsed: {:?}",
                &text[..cut]
            );
        }
        for tail in ["x", "{}", ",", "]", "\"\"", "0"] {
            assert!(Json::parse(&format!("{text}{tail}")).is_err(), "{tail}");
        }
        for bad in [
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "[1 2]",
            "nul",
            "\"\\x\"",
            "-",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }
}

//! The embedding's JSON file format, read and written without a value tree.
//!
//! The document is one object with five keys:
//!
//! ```text
//! {"method":"NRP","num_nodes":3,"half_dimension":2,"forward":[…],"backward":[…]}
//! ```
//!
//! `forward` and `backward` are the row-major `num_nodes × half_dimension`
//! factor matrices.  The reader scans the object once, locates both arrays,
//! then parses one on the calling thread and the other on a scoped thread,
//! each straight into its `Vec<f64>`.  Numbers follow the grammar and the
//! conversions of the workspace's `serde_json` stand-in, so every document
//! that parser accepts (without a repeated or unknown key) loads to the same
//! bits; the `tests` module checks that against the stand-in itself.

use std::fmt::{self, Write as _};
use std::io::{self, Write};

use nrp_linalg::DenseMatrix;

use super::Embedding;
use crate::{NrpError, Result};

/// The five keys, in the order [`write_document`] emits them.
const FIELDS: [&str; 5] = [
    "method",
    "num_nodes",
    "half_dimension",
    "forward",
    "backward",
];

/// Parses a whole embedding document.
pub(super) fn parse_document(bytes: &[u8]) -> Result<Embedding> {
    let header = scan(bytes)?;
    let (forward, backward) = std::thread::scope(|scope| {
        let spawned = std::thread::Builder::new()
            .name("nrp-embedding-load".into())
            .spawn_scoped(scope, || parse_numbers(bytes, header.backward));
        let forward = parse_numbers(bytes, header.forward);
        let backward = match spawned {
            Ok(handle) => handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            Err(_) => parse_numbers(bytes, header.backward),
        };
        (forward, backward)
    });
    // Report the failure that comes first in the document.
    let (forward, backward) = if header.forward.start < header.backward.start {
        let forward = forward?;
        (forward, backward?)
    } else {
        let backward = backward?;
        (forward?, backward)
    };
    let matrix = |data: Vec<f64>, at: usize| {
        DenseMatrix::from_vec(header.num_nodes, header.half_dimension, data)
            .map_err(|e| error(at, e))
    };
    let forward = matrix(forward, header.forward.start)?;
    let backward = matrix(backward, header.backward.start)?;
    Embedding::new(forward, backward, header.method)
}

/// Writes `embedding` as one compact JSON object: the keys in [`FIELDS`]
/// order, every finite number in Rust's shortest round-trip `Display` with
/// a `.0` appended to integral values, and `null` for NaN and infinities.
pub(super) fn write_document<W: Write>(embedding: &Embedding, out: &mut W) -> io::Result<()> {
    out.write_all(b"{\"method\":")?;
    write_string(out, embedding.method())?;
    write!(
        out,
        ",\"num_nodes\":{},\"half_dimension\":{},\"forward\":",
        embedding.num_nodes(),
        embedding.half_dimension()
    )?;
    write_numbers(out, embedding.forward().data())?;
    out.write_all(b",\"backward\":")?;
    write_numbers(out, embedding.backward().data())?;
    out.write_all(b"}")
}

fn write_numbers<W: Write>(out: &mut W, values: &[f64]) -> io::Result<()> {
    out.write_all(b"[")?;
    let mut text = String::with_capacity(32);
    for (i, &value) in values.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        if !value.is_finite() {
            out.write_all(b"null")?;
            continue;
        }
        text.clear();
        write!(text, "{value}").map_err(|_| io::Error::other("formatting a float failed"))?;
        out.write_all(text.as_bytes())?;
        if !text.contains(['.', 'e', 'E']) {
            out.write_all(b".0")?;
        }
    }
    out.write_all(b"]")
}

fn write_string<W: Write>(out: &mut W, s: &str) -> io::Result<()> {
    out.write_all(b"\"")?;
    for c in s.chars() {
        match c {
            '"' => out.write_all(b"\\\"")?,
            '\\' => out.write_all(b"\\\\")?,
            '\n' => out.write_all(b"\\n")?,
            '\r' => out.write_all(b"\\r")?,
            '\t' => out.write_all(b"\\t")?,
            '\u{08}' => out.write_all(b"\\b")?,
            '\u{0c}' => out.write_all(b"\\f")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_all(c.encode_utf8(&mut [0; 4]).as_bytes())?,
        }
    }
    out.write_all(b"\"")
}

/// A serialization error at byte `pos` of the document.
fn error(pos: usize, message: impl fmt::Display) -> NrpError {
    NrpError::Serialization(format!("{message} at byte {pos}"))
}

/// The top-level object with its arrays located but not yet parsed.
struct Header {
    method: String,
    num_nodes: usize,
    half_dimension: usize,
    forward: Span,
    backward: Span,
}

/// An array located by [`Cursor::delimit_array`]: `[` through the first
/// `]` after it, and the number of commas between them.
#[derive(Clone, Copy)]
struct Span {
    start: usize,
    end: usize,
    commas: usize,
}

/// Scans the top-level object: every key once, the scalars parsed, the two
/// arrays only delimited.  Checks that nothing but whitespace follows.
fn scan(bytes: &[u8]) -> Result<Header> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let mut method = None;
    let mut num_nodes = None;
    let mut half_dimension = None;
    let mut forward = None;
    let mut backward = None;
    let scanned = (|| {
        cursor.skip_whitespace();
        cursor.eat(b'{')?;
        cursor.skip_whitespace();
        if cursor.peek() == Some(b'}') {
            cursor.pos += 1;
        } else {
            loop {
                cursor.skip_whitespace();
                let key_pos = cursor.pos;
                let key = cursor.parse_string()?;
                cursor.skip_whitespace();
                cursor.eat(b':')?;
                cursor.skip_whitespace();
                let seen = match key.as_str() {
                    "method" => method.replace(cursor.parse_string()?).is_some(),
                    "num_nodes" => num_nodes.replace(cursor.parse_usize()?).is_some(),
                    "half_dimension" => half_dimension.replace(cursor.parse_usize()?).is_some(),
                    "forward" => forward.replace(cursor.delimit_array()?).is_some(),
                    "backward" => backward.replace(cursor.delimit_array()?).is_some(),
                    _ => {
                        return Err(error(
                            key_pos,
                            format!("unknown field `{key}`, expected one of {FIELDS:?}"),
                        ))
                    }
                };
                if seen {
                    return Err(error(key_pos, format!("duplicate field `{key}`")));
                }
                cursor.skip_whitespace();
                match cursor.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(cursor.error_before("expected `,` or `}` in object")),
                }
            }
        }
        cursor.skip_whitespace();
        if cursor.pos != bytes.len() {
            return Err(cursor.error("trailing characters after JSON value"));
        }
        Ok(())
    })();
    if let Err(scan_error) = scanned {
        // An array delimited before the failure may hold an earlier, more
        // telling error (a `null`, a nested array whose `]` ended the span).
        for span in [forward, backward].into_iter().flatten() {
            parse_numbers(bytes, span)?;
        }
        return Err(scan_error);
    }
    let end = cursor.pos;
    let missing = |field: &str| error(end, format!("missing field `{field}`"));
    Ok(Header {
        method: method.ok_or_else(|| missing("method"))?,
        num_nodes: num_nodes.ok_or_else(|| missing("num_nodes"))?,
        half_dimension: half_dimension.ok_or_else(|| missing("half_dimension"))?,
        forward: forward.ok_or_else(|| missing("forward"))?,
        backward: backward.ok_or_else(|| missing("backward"))?,
    })
}

/// Parses the array at `span` into a buffer sized from its text: one slot
/// per comma, plus one.
fn parse_numbers(bytes: &[u8], span: Span) -> Result<Vec<f64>> {
    let mut values = Vec::with_capacity(span.commas + 1);
    let mut cursor = Cursor {
        bytes: &bytes[..span.end],
        pos: span.start,
    };
    cursor.eat(b'[')?;
    cursor.skip_whitespace();
    if cursor.peek() == Some(b']') {
        return Ok(values);
    }
    loop {
        cursor.skip_whitespace();
        values.push(cursor.parse_f64()?);
        cursor.skip_whitespace();
        match cursor.bump() {
            Some(b',') => continue,
            Some(b']') => return Ok(values),
            _ => return Err(cursor.error_before("expected `,` or `]` in array")),
        }
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn error(&self, message: impl fmt::Display) -> NrpError {
        error(self.pos, message)
    }

    /// An error at the byte just consumed.
    fn error_before(&self, message: impl fmt::Display) -> NrpError {
        error(self.pos.saturating_sub(1), message)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected `{}`", byte as char)))
        }
    }

    /// What a value starting here is, for "expected X, got Y" messages.
    fn kind_here(&self) -> &'static str {
        match self.peek() {
            None => "end of input",
            Some(b'n') => "null",
            Some(b't' | b'f') => "bool",
            Some(b'"') => "string",
            Some(b'[') => "array",
            Some(b'{') => "object",
            Some(b'-' | b'0'..=b'9') => "number",
            Some(_) => "an unexpected character",
        }
    }

    /// Skips `[`, then everything up to and including the first `]`,
    /// counting commas on the way.  Whether the span holds only numbers is for
    /// [`parse_numbers`] to check.
    fn delimit_array(&mut self) -> Result<Span> {
        if self.peek() != Some(b'[') {
            return Err(self.error(format!("expected array, got {}", self.kind_here())));
        }
        let start = self.pos;
        let rest = &self.bytes[start..];
        // Whole 64-byte blocks up to the one holding the `]`; `u8` counters
        // let the compiler vectorise both tests.
        let mut commas = 0;
        let mut scanned = 0;
        for block in rest.chunks_exact(64) {
            let (mut closed, mut block_commas) = (0u8, 0u8);
            for &b in block {
                closed |= u8::from(b == b']');
                block_commas += u8::from(b == b',');
            }
            if closed != 0 {
                break;
            }
            commas += usize::from(block_commas);
            scanned += block.len();
        }
        let tail = &rest[scanned..];
        let close = tail
            .iter()
            .position(|&b| b == b']')
            .ok_or_else(|| self.error("unterminated array"))?;
        commas += tail[..close].iter().filter(|&&b| b == b',').count();
        self.pos = start + scanned + close + 1;
        Ok(Span {
            start,
            end: self.pos,
            commas,
        })
    }

    /// Scans one number token: the longest run of bytes that can occur in
    /// a number (`0-9 + - . e E`), starting with `-` or a digit.  Returns
    /// it and whether it is a float token (has a `.` or an exponent).
    ///
    /// The `serde_json` stand-in instead walks the grammar
    /// `-? digits (. digits)? ([eE] [+-]? digits)?`, with every part
    /// optional, and then parses the token as `u64`, `i64` or `f64`.  The
    /// two agree on every document: where the stand-in's token is shorter
    /// than the run, a number byte follows it and it fails at that byte,
    /// and this run fails to parse, because each string that `u64`, `i64`
    /// or `f64` parsing accepts from these bytes is one grammar token.
    fn number_token(&mut self) -> Result<(&str, bool)> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(self.error(format!("expected number, got {}", self.kind_here())));
        }
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'+' | b'-' => {}
                b'.' | b'e' | b'E' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| error(start, "invalid number"))?;
        Ok((text, is_float))
    }

    /// One factor entry.  Equal to the stand-in's integer-then-widen path
    /// on every token: both round the exact value to nearest, so only an
    /// integer token of negative zero differs, and it reads as +0.0 there.
    fn parse_f64(&mut self) -> Result<f64> {
        let start = self.pos;
        let (text, is_float) = self.number_token()?;
        let negative_zero =
            text.len() > 1 && text.starts_with('-') && text.bytes().skip(1).all(|b| b == b'0');
        if !is_float && negative_zero {
            return Ok(0.0);
        }
        text.parse::<f64>()
            .map_err(|_| error(start, format!("invalid number `{text}`")))
    }

    /// A size field, converted as the stand-in converts a number to
    /// `usize`: a `u64` integer token, or an integral float token in `u64`
    /// range (`3.0`, `1e3`).  Negative integer tokens, `-0` included, are
    /// refused.
    fn parse_usize(&mut self) -> Result<usize> {
        let start = self.pos;
        let expected = |what: &str| error(start, format!("expected unsigned integer, got {what}"));
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return Err(expected(self.kind_here()));
        }
        let (text, is_float) = self.number_token()?;
        let raw = if let Ok(v) = text.parse::<u64>() {
            v
        } else if !is_float && text.parse::<i64>().is_ok() {
            return Err(expected("a negative number"));
        } else {
            match text.parse::<f64>() {
                Ok(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => v as u64,
                Ok(_) => return Err(expected("a fractional or out-of-range number")),
                Err(_) => return Err(error(start, format!("invalid number `{text}`"))),
            }
        };
        usize::try_from(raw).map_err(|_| error(start, format!("{raw} out of range for usize")))
    }

    fn parse_string(&mut self) -> Result<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(self.bytes.len() - self.pos);
            let plain = &self.bytes[self.pos..self.pos + run];
            out.push_str(
                std::str::from_utf8(plain)
                    .map_err(|e| error(self.pos + e.valid_up_to(), "invalid UTF-8 in string"))?,
            );
            self.pos += run;
            match self.bump() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => return Ok(out),
                _ => {
                    let escape = self.bump();
                    out.push(match escape {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'b') => '\u{08}',
                        Some(b'f') => '\u{0c}',
                        Some(b'u') => self.parse_unicode_escape()?,
                        _ => return Err(self.error_before("invalid escape sequence")),
                    });
                }
            }
        }
    }

    /// The code point of a `\uXXXX` escape (after the `u`), joining a
    /// surrogate pair.
    fn parse_unicode_escape(&mut self) -> Result<char> {
        let first = self.parse_hex4()?;
        let code = if (0xd800..0xdc00).contains(&first) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let second = self.parse_hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else if (0xdc00..0xe000).contains(&first) {
            return Err(self.error("unexpected low surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let mut code = 0u32;
        for _ in 0..4 {
            let digit = match self.bump() {
                Some(b @ b'0'..=b'9') => b - b'0',
                Some(b @ b'a'..=b'f') => b - b'a' + 10,
                Some(b @ b'A'..=b'F') => b - b'A' + 10,
                _ => return Err(self.error_before("invalid hex digit in unicode escape")),
            };
            code = code * 16 + u32::from(digit);
        }
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    use super::*;

    /// The value-tree path this module replaced: the oracle for both
    /// directions.
    struct ShimEmbedding {
        method: String,
        num_nodes: usize,
        half_dimension: usize,
        forward: Vec<f64>,
        backward: Vec<f64>,
    }

    serde::impl_struct_serde!(ShimEmbedding {
        method,
        num_nodes,
        half_dimension,
        forward,
        backward
    });

    fn shim_render(e: &Embedding) -> String {
        serde_json::to_string(&ShimEmbedding {
            method: e.method().to_owned(),
            num_nodes: e.num_nodes(),
            half_dimension: e.half_dimension(),
            forward: e.forward().data().to_vec(),
            backward: e.backward().data().to_vec(),
        })
        .unwrap()
    }

    fn shim_parse(json: &str) -> std::result::Result<Embedding, String> {
        let raw: ShimEmbedding = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let forward = DenseMatrix::from_vec(raw.num_nodes, raw.half_dimension, raw.forward)
            .map_err(|e| e.to_string())?;
        let backward = DenseMatrix::from_vec(raw.num_nodes, raw.half_dimension, raw.backward)
            .map_err(|e| e.to_string())?;
        Embedding::new(forward, backward, raw.method).map_err(|e| e.to_string())
    }

    type Bits = (String, (usize, usize), Vec<u64>, Vec<u64>);

    fn bits(e: &Embedding) -> Bits {
        let raw = |m: &DenseMatrix| m.data().iter().map(|x| x.to_bits()).collect();
        (
            e.method().to_owned(),
            e.forward().shape(),
            raw(e.forward()),
            raw(e.backward()),
        )
    }

    fn parse_str(json: &str) -> Result<Embedding> {
        parse_document(json.as_bytes())
    }

    /// Asserts that the reader and the oracle agree bit for bit on `json`.
    fn assert_same_as_shim(json: &str) -> Embedding {
        let ours = parse_str(json).unwrap_or_else(|e| panic!("rejected {json}: {e}"));
        let shim = shim_parse(json).unwrap_or_else(|e| panic!("oracle rejected {json}: {e}"));
        assert_eq!(bits(&ours), bits(&shim), "{json}");
        ours
    }

    fn matrix(rows: usize, cols: usize, values: &[f64]) -> DenseMatrix {
        DenseMatrix::from_fn(rows, cols, |i, j| values[(i * cols + j) % values.len()])
    }

    /// Values whose rendering exercises every branch of the printer.
    const AWKWARD: [f64; 12] = [
        0.0,
        -0.0,
        3.0,
        -7.0,
        0.1,
        -1.5e-8,
        1e300,
        f64::MAX,
        f64::MIN_POSITIVE,
        5e-324,
        123456789.125,
        0.30000000000000004,
    ];

    fn awkward(method: &str) -> Embedding {
        let mut reversed = AWKWARD;
        reversed.reverse();
        Embedding::new(matrix(4, 3, &AWKWARD), matrix(4, 3, &reversed), method).unwrap()
    }

    fn random(nodes: usize, half: usize, seed: u64) -> Embedding {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut draw = |_, _| {
            let x: f64 = rng.gen::<f64>() - 0.5;
            if rng.gen_bool(0.1) {
                x.round()
            } else {
                x * 10f64.powi(rng.gen_range(0..12u32) as i32 - 6)
            }
        };
        let forward = DenseMatrix::from_fn(nodes, half, &mut draw);
        let backward = DenseMatrix::from_fn(nodes, half, &mut draw);
        Embedding::new(forward, backward, "NRP").unwrap()
    }

    #[test]
    fn writer_is_byte_identical_to_the_value_tree_printer() {
        let mut cases = vec![
            awkward("NRP"),
            awkward("q\"uote\\ \n\r\t\u{8}\u{c}\u{1}\u{1f} é 😀 ] }"),
            random(7, 5, 1),
            Embedding::new(DenseMatrix::zeros(0, 4), DenseMatrix::zeros(0, 4), "").unwrap(),
        ];
        let mut non_finite = awkward("nan");
        let mut forward = non_finite.forward().clone();
        forward.set(0, 0, f64::NAN);
        forward.set(1, 1, f64::INFINITY);
        non_finite = Embedding::new(forward, non_finite.backward().clone(), "nan").unwrap();
        cases.push(non_finite);
        for e in &cases {
            let ours = e.to_json().unwrap();
            assert_eq!(ours, shim_render(e));
            let dir = tempfile::tempdir().unwrap();
            let path = dir.path().join("e.json");
            e.save(&path).unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), ours);
        }
    }

    #[test]
    fn reader_matches_the_value_tree_parser_on_saved_files() {
        for e in [
            awkward("NRP"),
            awkward("q\"uote\\ \n\t\u{1} é 😀 ]"),
            random(9, 4, 2),
            random(1, 1, 3),
            Embedding::new(DenseMatrix::zeros(0, 2), DenseMatrix::zeros(0, 2), "e").unwrap(),
        ] {
            let back = assert_same_as_shim(&e.to_json().unwrap());
            assert_eq!(bits(&back), bits(&e));
        }
    }

    #[test]
    fn reader_matches_the_value_tree_parser_on_hand_written_variants() {
        for json in [
            // Integer tokens, including the negative zeros the value tree
            // reads as +0.0 and floats it reads as -0.0.
            r#"{"method":"m","num_nodes":2,"half_dimension":2,
                "forward":[1,-2,0,-0],"backward":[-00,-0.0,-0e0,18446744073709551616]}"#,
            // Exponents, leading zeros and lenient forms the grammar allows.
            r#"{"method":"m","num_nodes":2,"half_dimension":2,
                "forward":[1e2,1E-2,-2.5e+3,007],"backward":[1.,-.5,1.e1,1e400]}"#,
            // Big integers past i64 and u64.
            r#"{"method":"m","num_nodes":1,"half_dimension":3,
                "forward":[9223372036854775808,-9223372036854775809,99999999999999999999],
                "backward":[-9223372036854775808,18446744073709551615,1]}"#,
            // Whitespace everywhere it may go, shuffled keys, integral
            // float sizes and escaped keys.
            " \n\t{ \"backward\" : [ 1.5 , 2 ] ,\r\n \"half_dimension\":2.0, \
             \"forward\":[3,4],\"\\u006eum_nodes\":1e0, \"method\" : \"a]b\\\"c\\u00e9\\ud83d\\ude00\" } \n",
            // A `]` and braces inside the method string.
            r#"{"method":"]}{[","num_nodes":1,"half_dimension":1,"forward":[1],"backward":[2]}"#,
        ] {
            assert_same_as_shim(json);
        }
        let e = parse_str(r#"{"method":"m","num_nodes":1,"half_dimension":2,"forward":[-0,-0.0],"backward":[0,0]}"#).unwrap();
        assert_eq!(e.forward().data()[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(e.forward().data()[1].to_bits(), (-0.0f64).to_bits());
    }

    /// Every rejection is a `Serialization` error naming a byte offset.
    fn assert_rejected(json: &[u8], needle: &str) {
        match parse_document(json) {
            Err(NrpError::Serialization(message)) => {
                assert!(message.contains(needle), "{message:?} lacks {needle:?}");
                assert!(message.contains(" at byte "), "{message:?}");
            }
            other => panic!("{:?} gave {other:?}", String::from_utf8_lossy(json)),
        }
    }

    #[test]
    fn malformed_documents_are_rejected_with_byte_offsets() {
        let ok =
            r#"{"method":"m","num_nodes":1,"half_dimension":2,"forward":[1,2],"backward":[3,4]}"#;
        parse_str(ok).unwrap();
        for (json, needle) in [
            (ok.replace("[1,2]", "[1,null]"), "got null"),
            (ok.replace("[1,2]", "[1,[2]]"), "got array"),
            (ok.replace("[1,2]", "[1,\"2\"]"), "got string"),
            (ok.replace("[1,2]", "[1,2,]"), "expected number"),
            (ok.replace("[3,4]}", "[3,4"), "unterminated array"),
            (ok.replace("[3,4]}", "[3,4}"), "unterminated array"),
            (ok.replace("[1,2]", "[1 2]"), "expected `,` or `]`"),
            (ok.replace("[1,2]", "[1,2e]"), "invalid number"),
            (ok.replace("[1,2]", "[1,-]"), "invalid number"),
            (ok.replace("[1,2]", "[1,NaN]"), "expected number"),
            (ok.replace("[1,2]", "[1,2,3]"), "does not match"),
            (ok.replace("[1,2]", "7"), "expected array"),
            (format!("{ok} x"), "trailing characters"),
            (format!("{ok}{ok}"), "trailing characters"),
            (ok.replace("\"m\"", "\"m"), "expected `,` or `}`"),
            (ok.replace("\"m\"", "\"m\\q\""), "invalid escape"),
            (ok.replace("\"m\"", "\"\\ud800\""), "expected `\\`"),
            (
                ok.replace("\"m\"", "\"\\udc00\""),
                "unexpected low surrogate",
            ),
            (ok.replace("\"m\"", "\"\\u12g4\""), "invalid hex digit"),
            (ok.replace("\"m\"", "3"), "expected `\"`"),
            (ok.replace(":1,", ":-1,"), "negative"),
            (ok.replace(":1,", ":-0,"), "negative"),
            (ok.replace(":1,", ":1.5,"), "fractional"),
            (ok.replace(":1,", ":null,"), "got null"),
            (
                ok.replace("\"method\"", "\"methods\""),
                "unknown field `methods`",
            ),
            (ok.replace("{", "{\"extra\":1,"), "unknown field `extra`"),
            (
                ok.replace("}", ",\"num_nodes\":1}"),
                "duplicate field `num_nodes`",
            ),
            (
                ok.replace("}", ",\"forward\":[1,2]}"),
                "duplicate field `forward`",
            ),
            (
                ok.replace(",\"method\":\"m\"", "")
                    .replace("{\"method\":\"m\",", "{"),
                "missing field `method`",
            ),
            (
                ok.replace(",\"backward\":[3,4]", ""),
                "missing field `backward`",
            ),
            ("{}".into(), "missing field"),
            ("[]".into(), "expected `{`"),
            ("".into(), "expected `{`"),
            ("{not json".into(), "expected `\"`"),
        ] {
            assert_rejected(json.as_bytes(), needle);
        }
        let mut invalid_utf8 = ok.as_bytes().to_vec();
        invalid_utf8[11] = 0xff;
        assert_rejected(&invalid_utf8, "invalid UTF-8");
    }

    #[test]
    fn sizes_never_drive_allocation_or_overflow() {
        // The product wraps to 0 in release; it must fail, not match `[]`.
        let err = Embedding::from_json(
            r#"{"method":"x","num_nodes":4294967296,"half_dimension":4294967296,"forward":[],"backward":[]}"#,
        )
        .unwrap_err();
        assert!(
            matches!(&err, NrpError::Serialization(m) if m.contains("overflows")),
            "{err}"
        );
        // A huge header over tiny arrays allocates for the arrays only.
        assert_rejected(
            br#"{"method":"x","num_nodes":1000000000000,"half_dimension":1000000,"forward":[1],"backward":[1]}"#,
            "does not match",
        );
    }

    /// One seeded mutation of `doc`: bit flips, a truncation, a splice of
    /// the document into itself, or structural bytes dropped in.
    fn mutate(doc: &[u8], rng: &mut ChaCha8Rng) -> Vec<u8> {
        let mut out = doc.to_vec();
        let at = |rng: &mut ChaCha8Rng, len: usize| rng.gen_range(0..len.max(1));
        match rng.gen_range(0..4u32) {
            0 => {
                for _ in 0..rng.gen_range(1..4usize) {
                    let i = at(rng, out.len());
                    out[i] ^= 1 << rng.gen_range(0..8u32);
                }
            }
            1 => out.truncate(at(rng, doc.len())),
            2 => {
                let a = at(rng, doc.len());
                let b = a + at(rng, doc.len() - a);
                let c = at(rng, out.len());
                let cut = c + at(rng, out.len() - c).min(b - a);
                out.splice(c..cut, doc[a..b].iter().copied());
            }
            _ => {
                const BYTES: &[u8] = b"[]{},:\"\\-+.eE0 n";
                for _ in 0..rng.gen_range(1..3usize) {
                    let i = at(rng, out.len());
                    out[i] = BYTES[rng.gen_range(0..BYTES.len())];
                }
            }
        }
        out
    }

    #[test]
    fn seeded_mutants_load_or_fail_typed_and_agree_with_the_value_tree() {
        let saved = random(6, 3, 7).to_json().unwrap();
        let shuffled = format!(
            r#" {{ "backward" : {b}, "half_dimension":3,"method":"N]R\"P","forward":{f} ,"num_nodes":6 }}"#,
            b = "[1,-0,2.5e-3,-4,5,6,7,8,9,10,11,12,13,14,15,16,17,18]",
            f = "[0.5,1e2,-3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,1.8E1]",
        );
        let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
        let (mut accepted, mut rejected) = (0, 0);
        for doc in [saved.as_bytes(), shuffled.as_bytes()] {
            for round in 0..1500 {
                let mutant = mutate(doc, &mut rng);
                let ours = catch_unwind(AssertUnwindSafe(|| parse_document(&mutant)))
                    .unwrap_or_else(|_| panic!("mutant {round} panicked: {mutant:?}"));
                let Ok(text) = std::str::from_utf8(&mutant) else {
                    assert!(matches!(ours, Err(NrpError::Serialization(_))));
                    rejected += 1;
                    continue;
                };
                match (ours, shim_parse(text)) {
                    (Ok(ours), Ok(shim)) => {
                        assert_eq!(bits(&ours), bits(&shim), "{text}");
                        accepted += 1;
                    }
                    (Ok(_), Err(e)) => panic!("oracle rejects what we accept ({e}): {text}"),
                    (Err(NrpError::Serialization(message)), shim) => {
                        assert!(message.contains(" at byte "), "{message}");
                        let stricter = message.contains("duplicate field")
                            || message.contains("unknown field");
                        assert!(shim.is_err() || stricter, "{message}: {text}");
                        rejected += 1;
                    }
                    (Err(other), _) => panic!("untyped error {other:?}: {text}"),
                }
            }
        }
        assert!(accepted > 100 && rejected > 1000, "{accepted} / {rejected}");
    }
}

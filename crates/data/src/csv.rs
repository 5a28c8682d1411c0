//! Minimal CSV serialization of EM datasets.
//!
//! Layout matches the Magellan convention: `id,label,left_<attr>…,right_<attr>…`.
//! Quoting follows RFC 4180 (fields containing `,`, `"` or newlines are
//! quoted; embedded quotes double).

use crate::model::{DatasetType, EmDataset, Entity, RecordPair, Schema};
use std::fmt::Write as _;
use std::io::{self, BufRead};
use std::path::Path;

/// Errors arising while parsing a dataset CSV.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem with the file contents.
    Malformed(String),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "io error: {e}"),
            CsvError::Malformed(m) => write!(f, "malformed csv: {m}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<io::Error> for CsvError {
    fn from(e: io::Error) -> Self {
        CsvError::Io(e)
    }
}

fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Splits CSV text into records, honoring quotes (a newline inside a quoted
/// field does not end the record) and stripping CR from CRLF endings.
fn split_records(text: &str) -> Vec<String> {
    let mut records = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    for c in text.chars() {
        match c {
            '"' => {
                in_quotes = !in_quotes; // doubled quotes toggle twice: net zero
                cur.push(c);
            }
            '\r' if !in_quotes => {} // CRLF / stray CR outside quotes
            '\n' if !in_quotes => {
                records.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        records.push(cur);
    }
    records
}

/// Splits one CSV record into fields.
fn split_fields(line: &str) -> Result<Vec<String>, CsvError> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::Malformed("unterminated quote".into()));
    }
    fields.push(cur);
    Ok(fields)
}

/// Serializes a dataset to CSV text.
pub fn to_csv_string(dataset: &EmDataset) -> String {
    let mut out = String::new();
    out.push_str("id,label");
    for side in ["left", "right"] {
        for attr in &dataset.schema.attributes {
            let _ = write!(out, ",{side}_{}", quote(attr));
        }
    }
    out.push('\n');
    for pair in &dataset.pairs {
        let _ = write!(out, "{},{}", pair.id, u8::from(pair.label));
        for entity in [&pair.left, &pair.right] {
            for v in &entity.values {
                out.push(',');
                out.push_str(&quote(v));
            }
        }
        out.push('\n');
    }
    out
}

/// Writes a dataset to a CSV file.
pub fn write_csv(dataset: &EmDataset, path: &Path) -> io::Result<()> {
    std::fs::write(path, to_csv_string(dataset))
}

/// Parses a dataset from CSV text produced by [`to_csv_string`]: the header
/// is `id,label`, then `left_<attr>` for every attribute, then
/// `right_<attr>` for the same attributes in the same order.
pub fn from_csv_string(
    text: &str,
    name: &str,
    dataset_type: DatasetType,
) -> Result<EmDataset, CsvError> {
    let records = split_records(text);
    let mut lines = records.iter().map(String::as_str);
    let header = lines.next().ok_or_else(|| CsvError::Malformed("empty file".into()))?;
    let cols = split_fields(header)?;
    if cols.len() < 2 || cols[0] != "id" || cols[1] != "label" {
        return Err(CsvError::Malformed("header must start with id,label".into()));
    }
    let n_attr_cols = cols.len() - 2;
    if n_attr_cols % 2 != 0 {
        return Err(CsvError::Malformed("left/right attribute columns unbalanced".into()));
    }
    let m = n_attr_cols / 2;
    let attributes: Vec<String> = cols[2..2 + m]
        .iter()
        .map(|c| {
            c.strip_prefix("left_")
                .map(str::to_string)
                .ok_or_else(|| CsvError::Malformed(format!("bad column name {c}")))
        })
        .collect::<Result<_, _>>()?;
    for (c, attr) in cols[2 + m..].iter().zip(&attributes) {
        if c.strip_prefix("right_") != Some(attr.as_str()) {
            return Err(CsvError::Malformed(format!(
                "bad column name {c}: expected right_{attr} (the right side must repeat the \
                 left side's attributes in order)"
            )));
        }
    }

    let mut pairs = Vec::new();
    for (ln, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields = split_fields(line)?;
        if fields.len() != cols.len() {
            return Err(CsvError::Malformed(format!(
                "row {}: {} fields, expected {}",
                ln + 2,
                fields.len(),
                cols.len()
            )));
        }
        let id: u32 = fields[0]
            .parse()
            .map_err(|_| CsvError::Malformed(format!("row {}: bad id", ln + 2)))?;
        let label = match fields[1].as_str() {
            "1" => true,
            "0" => false,
            other => {
                return Err(CsvError::Malformed(format!("row {}: bad label {other}", ln + 2)))
            }
        };
        pairs.push(RecordPair {
            id,
            label,
            left: Entity { values: fields[2..2 + m].to_vec() },
            right: Entity { values: fields[2 + m..].to_vec() },
        });
    }
    Ok(EmDataset { name: name.to_string(), dataset_type, schema: Schema { attributes }, pairs })
}

/// Reads a dataset from a CSV file.
pub fn read_csv(path: &Path, name: &str, dataset_type: DatasetType) -> Result<EmDataset, CsvError> {
    let file = std::fs::File::open(path)?;
    let mut text = String::new();
    let mut reader = io::BufReader::new(file);
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        text.push_str(&line);
    }
    from_csv_string(&text, name, dataset_type)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> EmDataset {
        EmDataset {
            name: "toy".into(),
            dataset_type: DatasetType::Structured,
            schema: Schema::new(vec!["name", "price"]),
            pairs: vec![
                RecordPair {
                    id: 0,
                    label: true,
                    left: Entity::new(vec!["sony, camera".to_string(), "37.63".into()]),
                    right: Entity::new(vec!["sony \"dslr\"".to_string(), "36".into()]),
                },
                RecordPair {
                    id: 1,
                    label: false,
                    left: Entity::new(vec!["a".to_string(), "".into()]),
                    right: Entity::new(vec!["b".to_string(), "1".into()]),
                },
            ],
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let d = toy();
        let text = to_csv_string(&d);
        let back = from_csv_string(&text, "toy", DatasetType::Structured).unwrap();
        assert_eq!(d.schema, back.schema);
        assert_eq!(d.pairs, back.pairs);
    }

    #[test]
    fn quoting_commas_and_quotes() {
        let text = to_csv_string(&toy());
        assert!(text.contains("\"sony, camera\""));
        assert!(text.contains("\"sony \"\"dslr\"\"\""));
    }

    #[test]
    fn rejects_bad_header() {
        let err = from_csv_string("foo,bar\n", "x", DatasetType::Structured);
        assert!(matches!(err, Err(CsvError::Malformed(_))));
    }

    #[test]
    fn rejects_ragged_rows() {
        let text = "id,label,left_a,right_a\n0,1,x\n";
        let err = from_csv_string(text, "x", DatasetType::Structured);
        assert!(matches!(err, Err(CsvError::Malformed(_))));
    }

    #[test]
    fn rejects_unbalanced_sides() {
        let text = "id,label,left_a,left_b,right_a\n";
        let err = from_csv_string(text, "x", DatasetType::Structured);
        assert!(matches!(err, Err(CsvError::Malformed(_))));
    }

    #[test]
    fn rejects_right_columns_out_of_order() {
        let text = "id,label,left_name,left_price,right_price,right_name\n0,1,sony,37,200,sony\n";
        let err = from_csv_string(text, "x", DatasetType::Structured);
        assert!(matches!(err, Err(CsvError::Malformed(m)) if m.contains("right_name")));
    }

    #[test]
    fn rejects_right_columns_without_prefix() {
        let text = "id,label,left_name,left_price,foo,bar\n0,1,sony,37,sony,36\n";
        let err = from_csv_string(text, "x", DatasetType::Structured);
        assert!(matches!(err, Err(CsvError::Malformed(m)) if m.contains("foo")));
    }

    #[test]
    fn file_roundtrip() {
        let d = toy();
        let path = std::env::temp_dir().join("wym_csv_test.csv");
        write_csv(&d, &path).unwrap();
        let back = read_csv(&path, "toy", DatasetType::Structured).unwrap();
        assert_eq!(d.pairs, back.pairs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn quoted_newline_roundtrips() {
        let mut d = toy();
        d.pairs[0].left.values[0] = "line one\nline two".to_string();
        let text = to_csv_string(&d);
        let back = from_csv_string(&text, "toy", DatasetType::Structured).unwrap();
        assert_eq!(back.pairs[0].left.values[0], "line one\nline two");
    }

    #[test]
    fn crlf_endings_are_stripped() {
        let text = "id,label,left_a,right_a\r\n0,1,x,y\r\n";
        let d = from_csv_string(text, "t", DatasetType::Structured).unwrap();
        assert_eq!(d.pairs[0].right.values[0], "y");
    }

    #[test]
    fn empty_field_survives() {
        let d = toy();
        let back =
            from_csv_string(&to_csv_string(&d), "toy", DatasetType::Structured).unwrap();
        assert_eq!(back.pairs[1].left.values[1], "");
    }
}

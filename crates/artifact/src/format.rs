//! The WYMA container: a sectioned, checksummed, schema-versioned binary
//! file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   magic            b"WYMA"
//! offset 4   schema_version   u32
//! offset 8   toc_offset       u64   absolute offset of the TOC
//! offset 16  toc_len          u64   TOC bytes (incl. trailing TOC fnv)
//! offset 24  …section payloads…     (JSON 8-aligned, tensors 4096-aligned)
//! toc_offset TOC                    section table, see below
//! ```
//!
//! The TOC lives at the *end* of the file so the writer can stream payloads
//! without back-patching offsets; the 24-byte prelude is the only field
//! patched after the fact. TOC encoding: `u32` section count, then per
//! section `name_len:u16, name (utf-8), kind:u8, offset:u64, len:u64,
//! rows:u64, cols:u64, fnv:u64`, then one trailing `u64` — the FNV-1a of
//! all preceding TOC bytes, so a corrupted table is detected before any
//! offset in it is trusted. Per-section `fnv` covers that section's payload
//! bytes; [`Artifact::open`] verifies every one on load.
//!
//! Alignment rules: JSON sections are 8-aligned (cheap); `f32`/`i8` tensor
//! sections are [`TENSOR_ALIGN`]-aligned (one page), so inside a
//! memory-mapped artifact a tensor payload is page-aligned and byte-casts
//! to `&[f32]` without copying. Padding bytes are zero and excluded from
//! checksums.
//!
//! Forward compatibility: readers refuse files whose `schema_version` is
//! newer than [`ARTIFACT_SCHEMA_VERSION`] (fields they cannot know about
//! may have moved), and tolerate *unknown section names* within a known
//! version — adding a new optional section is a non-breaking change;
//! renaming, re-encoding, or removing one bumps the version.

use crate::blob::{Blob, LoadMode};
use crate::ArtifactError;
use std::path::Path;
use wym_obs::manifest::fnv1a;

/// File magic, the first four bytes of every artifact.
pub const MAGIC: [u8; 4] = *b"WYMA";

/// The container schema version this crate writes. History: 1 — initial
/// (prelude + end-of-file TOC + manifest/head/tensor/quant sections).
pub const ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// Alignment of tensor payloads (one page, so mapped tensors byte-cast).
pub const TENSOR_ALIGN: usize = 4096;

/// Alignment of JSON payloads.
const JSON_ALIGN: usize = 8;

/// Prelude bytes before the first payload.
const PRELUDE: usize = 24;

/// Payload encoding of a section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionKind {
    /// UTF-8 JSON text.
    Json,
    /// Row-major little-endian `f32`.
    F32,
    /// Row-major `i8`.
    I8,
}

impl SectionKind {
    fn code(self) -> u8 {
        match self {
            SectionKind::Json => 0,
            SectionKind::F32 => 1,
            SectionKind::I8 => 2,
        }
    }

    fn from_code(code: u8) -> Option<SectionKind> {
        match code {
            0 => Some(SectionKind::Json),
            1 => Some(SectionKind::F32),
            2 => Some(SectionKind::I8),
            _ => None,
        }
    }

    /// Human-readable kind name (`model inspect` output).
    pub fn name(self) -> &'static str {
        match self {
            SectionKind::Json => "json",
            SectionKind::F32 => "f32",
            SectionKind::I8 => "i8",
        }
    }
}

/// One TOC entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section name, e.g. `head` or `tensor:scorer.layer0.w`.
    pub name: String,
    /// Payload encoding.
    pub kind: SectionKind,
    /// Absolute payload offset in the file.
    pub offset: u64,
    /// Payload bytes.
    pub len: u64,
    /// Rows (0 for JSON sections).
    pub rows: u64,
    /// Columns (0 for JSON sections).
    pub cols: u64,
    /// FNV-1a of the payload bytes.
    pub fnv: u64,
}

/// Streaming writer: append sections, then [`ArtifactWriter::finish`].
pub struct ArtifactWriter {
    buf: Vec<u8>,
    sections: Vec<Section>,
}

impl Default for ArtifactWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ArtifactWriter {
    /// An empty artifact at the current schema version.
    pub fn new() -> ArtifactWriter {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&ARTIFACT_SCHEMA_VERSION.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]); // toc_offset + toc_len, patched in finish
        debug_assert_eq!(buf.len(), PRELUDE);
        ArtifactWriter { buf, sections: Vec::new() }
    }

    fn pad_to(&mut self, align: usize) {
        let rem = self.buf.len() % align;
        if rem != 0 {
            self.buf.resize(self.buf.len() + (align - rem), 0);
        }
    }

    fn push_section(
        &mut self,
        name: &str,
        kind: SectionKind,
        rows: u64,
        cols: u64,
        payload: &[u8],
    ) {
        assert!(
            self.sections.iter().all(|s| s.name != name),
            "duplicate artifact section `{name}`"
        );
        assert!(name.len() <= u16::MAX as usize, "section name too long");
        self.pad_to(match kind {
            SectionKind::Json => JSON_ALIGN,
            SectionKind::F32 | SectionKind::I8 => TENSOR_ALIGN,
        });
        let offset = self.buf.len() as u64;
        self.buf.extend_from_slice(payload);
        self.sections.push(Section {
            name: name.to_string(),
            kind,
            offset,
            len: payload.len() as u64,
            rows,
            cols,
            fnv: fnv1a(payload),
        });
    }

    /// Appends a JSON section.
    pub fn add_json(&mut self, name: &str, json: &[u8]) {
        self.push_section(name, SectionKind::Json, 0, 0, json);
    }

    /// Appends a page-aligned `rows × cols` little-endian `f32` tensor.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols` or the name repeats.
    pub fn add_f32(&mut self, name: &str, rows: usize, cols: usize, data: &[f32]) {
        assert_eq!(data.len(), rows * cols, "tensor `{name}` shape/data mismatch");
        let mut payload = Vec::with_capacity(data.len() * 4);
        for v in data {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        self.push_section(name, SectionKind::F32, rows as u64, cols as u64, &payload);
    }

    /// Appends a page-aligned `rows × cols` `i8` tensor.
    ///
    /// # Panics
    /// Panics when `data.len() != rows * cols` or the name repeats.
    pub fn add_i8(&mut self, name: &str, rows: usize, cols: usize, data: &[i8]) {
        assert_eq!(data.len(), rows * cols, "tensor `{name}` shape/data mismatch");
        let payload: Vec<u8> = data.iter().map(|&v| v as u8).collect();
        self.push_section(name, SectionKind::I8, rows as u64, cols as u64, &payload);
    }

    /// Seals the container: appends the TOC and patches the prelude.
    pub fn finish(mut self) -> Vec<u8> {
        self.pad_to(JSON_ALIGN);
        let toc_offset = self.buf.len() as u64;
        let mut toc = Vec::new();
        toc.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for s in &self.sections {
            toc.extend_from_slice(&(s.name.len() as u16).to_le_bytes());
            toc.extend_from_slice(s.name.as_bytes());
            toc.push(s.kind.code());
            for v in [s.offset, s.len, s.rows, s.cols, s.fnv] {
                toc.extend_from_slice(&v.to_le_bytes());
            }
        }
        let toc_fnv = fnv1a(&toc);
        toc.extend_from_slice(&toc_fnv.to_le_bytes());
        self.buf.extend_from_slice(&toc);
        self.buf[8..16].copy_from_slice(&toc_offset.to_le_bytes());
        self.buf[16..24].copy_from_slice(&(toc.len() as u64).to_le_bytes());
        self.buf
    }

    /// [`ArtifactWriter::finish`] + write to `path`. Returns file bytes.
    pub fn write_to(self, path: &Path) -> Result<u64, ArtifactError> {
        let bytes = self.finish();
        std::fs::write(path, &bytes)
            .map_err(|e| ArtifactError::io(&format!("writing {}", path.display()), e))?;
        Ok(bytes.len() as u64)
    }
}

/// An opened, checksum-verified artifact.
pub struct Artifact {
    blob: Blob,
    sections: Vec<Section>,
    schema_version: u32,
}

fn corrupt(path: &Path, what: &str) -> ArtifactError {
    ArtifactError::format(format!(
        "{}: {what}; the artifact is corrupt or truncated — re-save it with \
         `wym train --save-model`",
        path.display()
    ))
}

impl Artifact {
    /// Opens and fully verifies `path`: magic, schema version, TOC
    /// checksum, section bounds, and every section's payload checksum.
    pub fn open(path: &Path, mode: LoadMode) -> Result<Artifact, ArtifactError> {
        let blob = Blob::open(path, mode)
            .map_err(|e| ArtifactError::io(&format!("opening {}", path.display()), e))?;
        let data: &[u8] = &blob;
        if data.len() < PRELUDE {
            return Err(corrupt(path, &format!("file is {} bytes, shorter than the {PRELUDE}-byte prelude", data.len())));
        }
        if data[..4] != MAGIC {
            return Err(ArtifactError::format(format!(
                "{}: not a WYM model artifact (magic {:02x?}, expected {:02x?} = \"WYMA\")",
                path.display(),
                &data[..4],
                MAGIC
            )));
        }
        let schema_version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if schema_version == 0 || schema_version > ARTIFACT_SCHEMA_VERSION {
            return Err(ArtifactError::format(format!(
                "{}: artifact schema version {schema_version} is not supported (this \
                 build reads versions 1..={ARTIFACT_SCHEMA_VERSION}); re-save the model \
                 with this version of the tools, or upgrade the tools to read it",
                path.display()
            )));
        }
        let toc_offset = u64::from_le_bytes(data[8..16].try_into().unwrap()) as usize;
        let toc_len = u64::from_le_bytes(data[16..24].try_into().unwrap()) as usize;
        let toc_end = toc_offset
            .checked_add(toc_len)
            .filter(|&end| end <= data.len() && toc_offset >= PRELUDE && toc_len >= 12)
            .ok_or_else(|| {
                corrupt(path, &format!("TOC range {toc_offset}+{toc_len} exceeds the {}-byte file", data.len()))
            })?;
        let toc = &data[toc_offset..toc_end];
        let (body, tail) = toc.split_at(toc.len() - 8);
        let stored_fnv = u64::from_le_bytes(tail.try_into().unwrap());
        if fnv1a(body) != stored_fnv {
            return Err(corrupt(path, "TOC checksum mismatch"));
        }
        let sections = parse_toc(body).map_err(|what| corrupt(path, &what))?;
        for s in &sections {
            let end = s
                .offset
                .checked_add(s.len)
                .filter(|&end| end <= data.len() as u64)
                .ok_or_else(|| {
                    corrupt(path, &format!("section `{}` range {}+{} exceeds the {}-byte file", s.name, s.offset, s.len, data.len()))
                })?;
            let payload = &data[s.offset as usize..end as usize];
            if fnv1a(payload) != s.fnv {
                return Err(corrupt(path, &format!("section `{}` payload checksum mismatch", s.name)));
            }
            let elem = match s.kind {
                SectionKind::Json => continue,
                SectionKind::F32 => 4,
                SectionKind::I8 => 1,
            };
            // Checked: the TOC checksum is no defence against a crafted
            // shape, and a wrapped product could match `len`.
            if s.rows.checked_mul(s.cols).and_then(|n| n.checked_mul(elem)) != Some(s.len) {
                return Err(corrupt(path, &format!("section `{}` claims shape {}×{} but holds {} bytes", s.name, s.rows, s.cols, s.len)));
            }
        }
        Ok(Artifact { blob, sections, schema_version })
    }

    /// The container schema version of the opened file.
    pub fn schema_version(&self) -> u32 {
        self.schema_version
    }

    /// Total file size in bytes.
    pub fn file_bytes(&self) -> u64 {
        self.blob.len() as u64
    }

    /// True when the file is memory-mapped rather than read into memory.
    pub fn is_mapped(&self) -> bool {
        self.blob.is_mapped()
    }

    /// All sections, in file order.
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Looks a section up by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    fn require(&self, name: &str, kind: SectionKind) -> Result<&Section, ArtifactError> {
        let s = self.section(name).ok_or_else(|| {
            ArtifactError::format(format!(
                "artifact has no `{name}` section (sections: {}); it was written by an \
                 incompatible tool or is not a model artifact",
                self.sections.iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
            ))
        })?;
        if s.kind != kind {
            return Err(ArtifactError::format(format!(
                "section `{name}` is {}-encoded, expected {}",
                s.kind.name(),
                kind.name()
            )));
        }
        Ok(s)
    }

    /// Raw payload bytes of a section (zero-copy view into the blob).
    pub fn payload(&self, s: &Section) -> &[u8] {
        &self.blob[s.offset as usize..(s.offset + s.len) as usize]
    }

    /// The payload of a JSON section.
    pub fn json_payload(&self, name: &str) -> Result<&[u8], ArtifactError> {
        Ok(self.payload(self.require(name, SectionKind::Json)?))
    }

    /// Decodes an `f32` tensor section to `(rows, cols, data)`.
    ///
    /// On little-endian targets where the payload happens to be 4-aligned
    /// in memory (always true for a mapped blob, since tensor payloads are
    /// page-aligned in the file) this is a straight `memcpy`; otherwise a
    /// per-element decode. Either way the bits are identical.
    pub fn tensor_f32(&self, name: &str) -> Result<(usize, usize, Vec<f32>), ArtifactError> {
        let s = self.require(name, SectionKind::F32)?;
        Ok((s.rows as usize, s.cols as usize, decode_f32(self.payload(s))))
    }

    /// Decodes an `i8` tensor section to `(rows, cols, data)`.
    pub fn tensor_i8(&self, name: &str) -> Result<(usize, usize, Vec<i8>), ArtifactError> {
        let s = self.require(name, SectionKind::I8)?;
        let data = self.payload(s).iter().map(|&b| b as i8).collect();
        Ok((s.rows as usize, s.cols as usize, data))
    }
}

fn parse_toc(body: &[u8]) -> Result<Vec<Section>, String> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], String> {
        let end = pos.checked_add(n).filter(|&e| e <= body.len()).ok_or("TOC truncated")?;
        let out = &body[*pos..end];
        *pos = end;
        Ok(out)
    };
    let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().unwrap()) as usize;
    let mut sections = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name_len = u16::from_le_bytes(take(&mut pos, 2)?.try_into().unwrap()) as usize;
        let name = std::str::from_utf8(take(&mut pos, name_len)?)
            .map_err(|_| "section name is not UTF-8".to_string())?
            .to_string();
        let code = take(&mut pos, 1)?[0];
        let kind = SectionKind::from_code(code)
            .ok_or_else(|| format!("section `{name}` has unknown kind code {code}"))?;
        let mut vals = [0u64; 5];
        for v in &mut vals {
            *v = u64::from_le_bytes(take(&mut pos, 8)?.try_into().unwrap());
        }
        let [offset, len, rows, cols, fnv] = vals;
        sections.push(Section { name, kind, offset, len, rows, cols, fnv });
    }
    if pos != body.len() {
        return Err("TOC has trailing bytes".to_string());
    }
    Ok(sections)
}

/// Little-endian `f32` decode with an aligned fast path.
fn decode_f32(bytes: &[u8]) -> Vec<f32> {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every 4-byte bit pattern is a valid f32; align_to only
        // reinterprets the aligned middle of the byte slice.
        let (pre, mid, post) = unsafe { bytes.align_to::<f32>() };
        if pre.is_empty() && post.is_empty() {
            return mid.to_vec();
        }
    }
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wym_fmt_{name}_{}.wym", std::process::id()))
    }

    fn sample() -> ArtifactWriter {
        let mut w = ArtifactWriter::new();
        w.add_json("manifest", br#"{"manifest": {"tool": "test"}}"#);
        w.add_f32("tensor:a", 2, 3, &[1.0, -2.5, 3.25, 0.0, f32::MIN_POSITIVE, -0.0]);
        w.add_i8("quant:codes", 1, 4, &[-127, 0, 64, 127]);
        w
    }

    #[test]
    fn round_trip_preserves_sections_and_bits() {
        let path = tmp("rt");
        sample().write_to(&path).unwrap();
        for mode in [LoadMode::Read, LoadMode::Mmap] {
            let a = Artifact::open(&path, mode).unwrap();
            assert_eq!(a.schema_version(), ARTIFACT_SCHEMA_VERSION);
            assert_eq!(a.sections().len(), 3);
            let (r, c, data) = a.tensor_f32("tensor:a").unwrap();
            assert_eq!((r, c), (2, 3));
            assert_eq!(data[1], -2.5);
            assert_eq!(data[4].to_bits(), f32::MIN_POSITIVE.to_bits());
            assert_eq!(data[5].to_bits(), (-0.0f32).to_bits());
            let (_, _, q) = a.tensor_i8("quant:codes").unwrap();
            assert_eq!(q, vec![-127, 0, 64, 127]);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tensors_are_page_aligned() {
        let path = tmp("align");
        sample().write_to(&path).unwrap();
        let a = Artifact::open(&path, LoadMode::Read).unwrap();
        for s in a.sections() {
            if s.kind != SectionKind::Json {
                assert_eq!(s.offset as usize % TENSOR_ALIGN, 0, "section {}", s.name);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_rejected_with_a_clear_message() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE----------------------------").unwrap();
        let err = Artifact::open(&path, LoadMode::Read).err().expect("open must fail").to_string();
        assert!(err.contains("not a WYM model artifact"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_schema_version_is_refused() {
        let path = tmp("vers");
        let mut bytes = sample().finish();
        bytes[4..8].copy_from_slice(&(ARTIFACT_SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = Artifact::open(&path, LoadMode::Read).err().expect("open must fail").to_string();
        assert!(err.contains("schema version") && err.contains("upgrade"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_anywhere_is_detected() {
        let full = sample().finish();
        let path = tmp("trunc");
        for keep in [0, 3, PRELUDE - 1, PRELUDE + 10, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..keep]).unwrap();
            let err = Artifact::open(&path, LoadMode::Read).err().expect("open must fail").to_string();
            assert!(
                err.contains("corrupt or truncated") || err.contains("not a WYM"),
                "keep={keep}: {err}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn payload_bitflip_is_detected() {
        let mut bytes = sample().finish();
        let path = tmp("flip");
        // Flip one bit inside the tensor payload (page-aligned at 4096).
        bytes[4096 + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = Artifact::open(&path, LoadMode::Read).err().expect("open must fail").to_string();
        assert!(err.contains("checksum mismatch"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// A one-tensor artifact whose TOC claims `rows × cols` for a
    /// `floats`-element f32 payload, with the TOC checksum recomputed so
    /// only the shape check stands between the file and its readers.
    fn crafted_shape(rows: u64, cols: u64, floats: usize) -> Vec<u8> {
        let mut w = ArtifactWriter::new();
        w.add_f32("tensor:t", 1, floats, &vec![0.5; floats]);
        let mut bytes = w.finish();
        let toc_offset = u64::from_le_bytes(bytes[8..16].try_into().unwrap()) as usize;
        // count, name_len, name, kind, offset, len — then rows and cols.
        let rows_at = toc_offset + 4 + 2 + "tensor:t".len() + 1 + 8 + 8;
        bytes[rows_at..rows_at + 8].copy_from_slice(&rows.to_le_bytes());
        bytes[rows_at + 8..rows_at + 16].copy_from_slice(&cols.to_le_bytes());
        let fnv_at = bytes.len() - 8;
        let toc_fnv = fnv1a(&bytes[toc_offset..fnv_at]);
        bytes[fnv_at..].copy_from_slice(&toc_fnv.to_le_bytes());
        bytes
    }

    #[test]
    fn overflowing_tensor_shape_is_rejected() {
        let path = tmp("shape");
        // rows·cols overflows u64; rows·cols·4 wraps to exactly the 4-byte
        // payload.
        for (rows, cols, floats) in [(1u64 << 62, 4u64, 4usize), ((1 << 62) + 1, 1, 1)] {
            std::fs::write(&path, crafted_shape(rows, cols, floats)).unwrap();
            for mode in [LoadMode::Read, LoadMode::Mmap] {
                let err = Artifact::open(&path, mode).err().expect("open must fail").to_string();
                assert!(err.contains("claims shape"), "{rows}x{cols} {mode:?}: {err}");
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "duplicate artifact section")]
    fn duplicate_section_names_panic() {
        let mut w = ArtifactWriter::new();
        w.add_json("head", b"{}");
        w.add_json("head", b"{}");
    }

    #[test]
    fn unknown_sections_are_tolerated() {
        let mut w = sample();
        w.add_json("future:extension", b"{\"x\": 1}");
        let path = tmp("unk");
        w.write_to(&path).unwrap();
        let a = Artifact::open(&path, LoadMode::Read).unwrap();
        assert!(a.section("future:extension").is_some());
        std::fs::remove_file(&path).ok();
    }
}

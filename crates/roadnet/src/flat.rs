//! Flat, alignment-safe v2 index container.
//!
//! The v2 on-disk format (DESIGN.md §11) stores an index as one 8-byte
//! aligned buffer: a fixed header, a section table of `(byte offset, byte
//! length)` entries, and the section payloads. Loading brings the whole file
//! behind one 8-aligned buffer — by default a read-only `mmap(2)` so views
//! borrow page-cache-shared bytes and a continental index pages in lazily
//! ([`LoadMode::Auto`], falling back to one `read(2)` into a heap buffer
//! when mapping is unavailable) — validates the header and table, and hands
//! out typed slice views over those bytes. No per-node deserialization pass
//! and no nested `Vec` rebuild, so load-path allocations are O(sections),
//! not O(nodes).
//!
//! Writing has a streaming counterpart too: [`FlatStreamWriter`] sends the
//! header plus a reserved section table to the file up front, streams each
//! section payload as it is produced, and backpatches the table on finish —
//! peak writer memory is O(1) beyond the caller's own arrays, never a
//! second assembled copy of the container.
//!
//! Layout (all integers native-endian; the header carries an endianness
//! probe so a foreign-endian file is rejected with a typed error):
//!
//! ```text
//! bytes 0..8    magic (8 ASCII bytes, format-specific)
//! bytes 8..12   endianness probe: u32 = 0x0A0B0C0D
//! bytes 12..16  format version: u32
//! bytes 16..20  section count: u32 = S
//! bytes 20..24  reserved (0)
//! bytes 24..    section table: S x { byte offset: u64, byte length: u64 }
//! ...           section payloads, each starting at an 8-aligned offset,
//!               zero-padded so the file length is a multiple of 8
//! ```
//!
//! Section byte offsets are measured from the start of the file and the
//! recorded length is the unpadded payload length.

use std::fmt;
use std::fs::File;
use std::io::{Read, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::sync::Arc;

use crate::graph::Point;

/// Minimal std-only binding for read-only file mapping (same shape as the
/// serve layer's `signal(2)` shim): declare the two libc symbols needed
/// and wrap the region in a `Drop` guard. Only compiled on unix hosts;
/// everywhere else the loaders take the heap-read path.
#[cfg(unix)]
mod mm {
    use std::fs::File;
    use std::os::raw::{c_int, c_void};
    use std::os::unix::io::AsRawFd;

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    /// A read-only private mapping of a whole file, unmapped on drop.
    #[derive(Debug)]
    pub(super) struct MmapRegion {
        ptr: *const u8,
        len: usize,
    }

    // The mapping is immutable for its whole lifetime (PROT_READ, never
    // remapped) and owned uniquely by this struct, so shared references
    // may cross threads.
    unsafe impl Send for MmapRegion {}
    unsafe impl Sync for MmapRegion {}

    impl MmapRegion {
        pub(super) fn ptr(&self) -> *const u8 {
            self.ptr
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for MmapRegion {
        fn drop(&mut self) {
            unsafe { munmap(self.ptr as *mut c_void, self.len) };
        }
    }

    pub(super) fn map_file(f: &File, len: usize) -> std::io::Result<MmapRegion> {
        if len == 0 {
            // mmap(2) rejects zero-length mappings with EINVAL; surface a
            // clearer error (the validator rejects such files anyway).
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "cannot map an empty file",
            ));
        }
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ,
                MAP_PRIVATE,
                f.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        debug_assert_eq!(ptr as usize % 8, 0, "mappings are page-aligned");
        Ok(MmapRegion {
            ptr: ptr as *const u8,
            len,
        })
    }
}

/// How [`FlatFile::open`] backs the loaded bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// `mmap(2)` the file read-only — views borrow page-cache-shared
    /// bytes and large indexes page in lazily on first touch — falling
    /// back to [`LoadMode::Read`] when mapping fails or the host has no
    /// `mmap`.
    #[default]
    Auto,
    /// Require the file mapping; error when `mmap` is unavailable.
    Mmap,
    /// One `read(2)` into a private heap buffer (the eager path).
    Read,
}

/// Endianness probe written into every v2 header. A reader on a
/// foreign-endian host sees the byte-reversed value and rejects the file.
pub const ENDIAN_TAG: u32 = 0x0A0B_0C0D;

/// Fixed header length in bytes (before the section table).
pub const HEADER_BYTES: usize = 24;

/// Length of one section-table entry in bytes.
pub const SECTION_ENTRY_BYTES: usize = 16;

mod sealed {
    pub trait Sealed {}
}

/// Element types that may live in a flat section and be viewed directly
/// from the load buffer.
///
/// # Safety
///
/// Implementors must be plain-old-data: `Copy`, no padding bytes, every bit
/// pattern valid, alignment at most 8. These guarantees make both directions
/// of the byte cast sound (writing a `&[T]` as raw bytes, and viewing a
/// slice of the 8-aligned load buffer as `&[T]`).
pub unsafe trait Pod: sealed::Sealed + Copy + 'static {}

macro_rules! impl_pod {
    ($($t:ty),*) => {
        $(
            impl sealed::Sealed for $t {}
            unsafe impl Pod for $t {}
        )*
    };
}

impl_pod!(u32, u64, f64, Point);

/// Typed error for the flat container: every malformed input is rejected
/// without panicking.
#[derive(Debug)]
pub enum FlatError {
    Io(std::io::Error),
    BadMagic,
    /// The endianness probe did not match: file written on a foreign-endian
    /// host (zero-copy views would transpose every integer).
    WrongEndianness,
    UnsupportedVersion(u32),
    Truncated,
    /// A section offset or length violates the 8-byte alignment contract,
    /// or a payload length is not a multiple of the element size.
    Misaligned(&'static str),
    /// Section table entry points outside the file (or overflows).
    SectionBounds(usize),
    /// Structural invariant of the specific index format is violated.
    Corrupt(&'static str),
    /// A well-formed artifact recorded as built for another graph: its
    /// stored graph fingerprint is not the loading graph's
    /// ([`crate::Graph::fingerprint`]).
    GraphMismatch {
        /// What was refused, e.g. `labels.v2` or `shard map`.
        artifact: &'static str,
        /// The fingerprint the artifact records.
        built_for: u64,
        /// The fingerprint of the graph it was loaded against.
        graph: u64,
    },
}

impl fmt::Display for FlatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlatError::Io(e) => write!(f, "i/o error: {e}"),
            FlatError::BadMagic => write!(f, "bad magic"),
            FlatError::WrongEndianness => write!(f, "foreign-endian file"),
            FlatError::UnsupportedVersion(v) => write!(
                f,
                "unsupported format version {v}: rebuild it with this build's \
                 `fannr build-index` (a shard map with `fannr partition`)"
            ),
            FlatError::Truncated => write!(f, "truncated input"),
            FlatError::Misaligned(what) => write!(f, "misaligned {what}"),
            FlatError::SectionBounds(i) => write!(f, "section {i} out of bounds"),
            FlatError::Corrupt(what) => write!(f, "corrupt index: {what}"),
            FlatError::GraphMismatch {
                artifact,
                built_for,
                graph,
            } => write!(
                f,
                "{artifact} was built for another graph (fingerprint {built_for:016x}, \
                 this graph {graph:016x}): rebuild it from this graph"
            ),
        }
    }
}

impl std::error::Error for FlatError {}

impl From<std::io::Error> for FlatError {
    fn from(e: std::io::Error) -> Self {
        FlatError::Io(e)
    }
}

/// Structural-invariant guard used by the format loaders.
#[inline]
pub fn ensure(cond: bool, what: &'static str) -> Result<(), FlatError> {
    if cond {
        Ok(())
    } else {
        Err(FlatError::Corrupt(what))
    }
}

/// The 8-aligned load buffer behind a [`FlatFile`] and every view handed
/// out of it: a private heap buffer (one-read load, in-memory parse) or a
/// shared read-only file mapping. Clones are O(1) handle copies.
enum Words {
    Heap(Arc<[u64]>),
    #[cfg(unix)]
    Mapped(Arc<mm::MmapRegion>),
}

impl Clone for Words {
    fn clone(&self) -> Self {
        match self {
            Words::Heap(a) => Words::Heap(Arc::clone(a)),
            #[cfg(unix)]
            Words::Mapped(m) => Words::Mapped(Arc::clone(m)),
        }
    }
}

impl Words {
    #[inline]
    fn base(&self) -> *const u8 {
        match self {
            Words::Heap(a) => a.as_ptr() as *const u8,
            #[cfg(unix)]
            Words::Mapped(m) => m.ptr(),
        }
    }

    #[inline]
    fn byte_len(&self) -> usize {
        match self {
            Words::Heap(a) => a.len() * 8,
            #[cfg(unix)]
            Words::Mapped(m) => m.len(),
        }
    }

    /// The whole buffer as bytes. Sound: 8-aligned, immutable, and alive
    /// for as long as `self`.
    #[inline]
    fn bytes(&self) -> &[u8] {
        unsafe { std::slice::from_raw_parts(self.base(), self.byte_len()) }
    }

    fn is_mapped(&self) -> bool {
        match self {
            Words::Heap(_) => false,
            #[cfg(unix)]
            Words::Mapped(_) => true,
        }
    }
}

impl fmt::Debug for Words {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Words::Heap(a) => write!(f, "Heap({} bytes)", a.len() * 8),
            #[cfg(unix)]
            Words::Mapped(m) => write!(f, "Mapped({} bytes)", m.len()),
        }
    }
}

enum Backing<T: Pod> {
    Owned(Arc<[T]>),
    View {
        buf: Words,
        byte_off: usize,
        len: usize,
    },
}

impl<T: Pod> Clone for Backing<T> {
    fn clone(&self) -> Self {
        match self {
            Backing::Owned(a) => Backing::Owned(Arc::clone(a)),
            Backing::View { buf, byte_off, len } => Backing::View {
                buf: buf.clone(),
                byte_off: *byte_off,
                len: *len,
            },
        }
    }
}

/// A shared, immutable typed array: either an owned `Arc<[T]>` (in-memory
/// build) or a view into a loaded flat-file buffer (zero-copy load). Clones
/// are O(1) handle copies either way, so index types keep the `Arc<[T]>`
/// sharing semantics of the CSR graph while the on-disk and in-memory
/// representations coincide.
pub struct FlatVec<T: Pod> {
    backing: Backing<T>,
}

impl<T: Pod> FlatVec<T> {
    /// View of the elements. For the `View` backing this reinterprets a
    /// range of the 8-aligned `u64` load buffer as `[T]`; soundness is
    /// guaranteed by the [`Pod`] contract plus the alignment/bounds checks
    /// performed at construction.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        match &self.backing {
            Backing::Owned(a) => a,
            Backing::View { buf, byte_off, len } => unsafe {
                let base = buf.base().add(*byte_off) as *const T;
                std::slice::from_raw_parts(base, *len)
            },
        }
    }

    /// Whether two handles view the exact same memory (used for
    /// `shares_topology_with`-style identity checks).
    #[inline]
    pub fn ptr_eq(&self, other: &FlatVec<T>) -> bool {
        let a = self.as_slice();
        let b = other.as_slice();
        std::ptr::eq(a.as_ptr(), b.as_ptr()) && a.len() == b.len()
    }
}

impl<T: Pod> Clone for FlatVec<T> {
    fn clone(&self) -> Self {
        FlatVec {
            backing: self.backing.clone(),
        }
    }
}

impl<T: Pod> std::ops::Deref for FlatVec<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Pod> From<Vec<T>> for FlatVec<T> {
    fn from(v: Vec<T>) -> Self {
        FlatVec {
            backing: Backing::Owned(v.into()),
        }
    }
}

impl<T: Pod> From<Arc<[T]>> for FlatVec<T> {
    fn from(a: Arc<[T]>) -> Self {
        FlatVec {
            backing: Backing::Owned(a),
        }
    }
}

impl<T: Pod + fmt::Debug> fmt::Debug for FlatVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl<T: Pod + PartialEq> PartialEq for FlatVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[inline]
fn bytes_of<T: Pod>(data: &[T]) -> &[u8] {
    // Sound per the Pod contract: no padding bytes, so every byte is
    // initialized.
    unsafe { std::slice::from_raw_parts(data.as_ptr() as *const u8, std::mem::size_of_val(data)) }
}

/// Serializer for the v2 flat container: append typed sections, then
/// [`FlatWriter::finish`] assembles header + table + 8-aligned payloads.
pub struct FlatWriter {
    magic: [u8; 8],
    version: u32,
    sections: Vec<Vec<u8>>,
}

impl FlatWriter {
    pub fn new(magic: [u8; 8], version: u32) -> Self {
        FlatWriter {
            magic,
            version,
            sections: Vec::new(),
        }
    }

    /// Append a typed section; returns its index.
    pub fn section<T: Pod>(&mut self, data: &[T]) -> usize {
        self.sections.push(bytes_of(data).to_vec());
        self.sections.len() - 1
    }

    /// Assemble the container bytes.
    pub fn finish(self) -> Vec<u8> {
        let s = self.sections.len();
        let table_end = HEADER_BYTES + s * SECTION_ENTRY_BYTES;
        let mut total = table_end;
        let mut entries = Vec::with_capacity(s);
        for sec in &self.sections {
            let off = total;
            entries.push((off as u64, sec.len() as u64));
            total += sec.len().div_ceil(8) * 8;
        }
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&ENDIAN_TAG.to_ne_bytes());
        out.extend_from_slice(&self.version.to_ne_bytes());
        out.extend_from_slice(&(s as u32).to_ne_bytes());
        out.extend_from_slice(&0u32.to_ne_bytes());
        for &(off, len) in &entries {
            out.extend_from_slice(&off.to_ne_bytes());
            out.extend_from_slice(&len.to_ne_bytes());
        }
        for sec in &self.sections {
            out.extend_from_slice(sec);
            out.resize(out.len().div_ceil(8) * 8, 0);
        }
        debug_assert_eq!(out.len(), total);
        out
    }

    /// Write the container to a file.
    pub fn write_to(self, path: &Path) -> std::io::Result<()> {
        let bytes = self.finish();
        let mut f = File::create(path)?;
        f.write_all(&bytes)?;
        f.sync_all()
    }
}

/// Incremental counterpart of [`FlatWriter`]: the header plus a reserved
/// section table go to the file first, each section payload streams
/// straight out as it is produced, and [`FlatStreamWriter::finish`]
/// backpatches the table. Nothing is copied or assembled in memory, so
/// peak writer memory is O(1) beyond the caller's own arrays — writing a
/// continental index never costs a second copy of it. The section count
/// is declared up front (every v2 format has a fixed count) and enforced.
pub struct FlatStreamWriter {
    file: File,
    declared: usize,
    entries: Vec<(u64, u64)>,
    pos: u64,
}

impl FlatStreamWriter {
    /// Start a container that will hold exactly `sections` sections.
    pub fn create(
        path: &Path,
        magic: [u8; 8],
        version: u32,
        sections: usize,
    ) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        let table_end = HEADER_BYTES + sections * SECTION_ENTRY_BYTES;
        let mut header = Vec::with_capacity(table_end);
        header.extend_from_slice(&magic);
        header.extend_from_slice(&ENDIAN_TAG.to_ne_bytes());
        header.extend_from_slice(&version.to_ne_bytes());
        header.extend_from_slice(&(sections as u32).to_ne_bytes());
        header.extend_from_slice(&0u32.to_ne_bytes());
        header.resize(table_end, 0); // table placeholder, patched by finish
        file.write_all(&header)?;
        Ok(FlatStreamWriter {
            file,
            declared: sections,
            entries: Vec::with_capacity(sections),
            pos: table_end as u64,
        })
    }

    /// Stream one typed section to the file; returns its index.
    pub fn section<T: Pod>(&mut self, data: &[T]) -> std::io::Result<usize> {
        if self.entries.len() == self.declared {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "more sections than declared",
            ));
        }
        let bytes = bytes_of(data);
        self.entries.push((self.pos, bytes.len() as u64));
        self.file.write_all(bytes)?;
        let pad = bytes.len().div_ceil(8) * 8 - bytes.len();
        if pad > 0 {
            self.file.write_all(&[0u8; 8][..pad])?;
        }
        self.pos += (bytes.len() + pad) as u64;
        Ok(self.entries.len() - 1)
    }

    /// Backpatch the section table and sync the file to disk.
    pub fn finish(mut self) -> std::io::Result<()> {
        if self.entries.len() != self.declared {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "fewer sections than declared",
            ));
        }
        let mut table = Vec::with_capacity(self.entries.len() * SECTION_ENTRY_BYTES);
        for &(off, len) in &self.entries {
            table.extend_from_slice(&off.to_ne_bytes());
            table.extend_from_slice(&len.to_ne_bytes());
        }
        self.file.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
        self.file.write_all(&table)?;
        self.file.sync_all()
    }
}

/// A loaded (or parsed) v2 flat container: the whole file behind one
/// 8-aligned buffer (heap or file mapping) plus the validated section
/// table. Typed views handed out by [`FlatFile::section`] borrow the
/// buffer via `Arc`, so the file bytes (or the mapping) stay alive exactly
/// as long as any index built over them.
#[derive(Debug)]
pub struct FlatFile {
    buf: Words,
    version: u32,
    sections: Vec<(usize, usize)>,
}

/// Read a whole file into one aligned heap buffer: `new_zeroed_slice` gets
/// kernel-zeroed pages (no memset pass for large buffers), and building
/// the `Arc` up front avoids the full-buffer copy an `Arc::from(Vec)`
/// conversion would do. The read is the only pass over the bytes.
fn read_words(path: &Path) -> Result<Words, FlatError> {
    let mut f = File::open(path)?;
    let len = f.metadata()?.len();
    let len = usize::try_from(len).map_err(|_| FlatError::Corrupt("file too large"))?;
    if !len.is_multiple_of(8) {
        // Every valid container is 8-padded; reject before buffering.
        return Err(FlatError::Misaligned("file length"));
    }
    let mut buf = Arc::new_zeroed_slice(len / 8);
    {
        let words = Arc::get_mut(&mut buf).expect("freshly allocated arc is unique");
        // Sound: u64 has no padding and any byte pattern is a valid u64.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        f.read_exact(bytes)?;
    }
    // Sound: fully written by `read_exact` (and zero-initialized anyway).
    Ok(Words::Heap(unsafe { buf.assume_init() }))
}

/// Map a whole file read-only. Rejects lengths the validator would reject
/// anyway (not 8-padded, empty) before touching `mmap`.
#[cfg(unix)]
fn map_words(path: &Path) -> Result<Words, FlatError> {
    let f = File::open(path)?;
    let len = f.metadata()?.len();
    let len = usize::try_from(len).map_err(|_| FlatError::Corrupt("file too large"))?;
    if !len.is_multiple_of(8) {
        return Err(FlatError::Misaligned("file length"));
    }
    if len < HEADER_BYTES {
        return Err(FlatError::Truncated);
    }
    Ok(Words::Mapped(Arc::new(mm::map_file(&f, len)?)))
}

#[cfg(not(unix))]
fn map_words(_path: &Path) -> Result<Words, FlatError> {
    Err(FlatError::Io(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "mmap is unavailable on this host",
    )))
}

impl FlatFile {
    /// Read a file into one aligned heap buffer and validate header +
    /// table (the eager [`LoadMode::Read`] path). `expected_version` of 0
    /// accepts any version (callers then branch on [`FlatFile::version`]).
    pub fn read(path: &Path, magic: [u8; 8], expected_version: u32) -> Result<Self, FlatError> {
        Self::open(path, magic, expected_version, LoadMode::Read)
    }

    /// Load a container with an explicit backing [`LoadMode`]. The mapped
    /// and read paths validate identically and yield bit-identical views;
    /// [`LoadMode::Auto`] degrades to the read path when mapping fails.
    pub fn open(
        path: &Path,
        magic: [u8; 8],
        expected_version: u32,
        mode: LoadMode,
    ) -> Result<Self, FlatError> {
        let words = match mode {
            LoadMode::Read => read_words(path)?,
            LoadMode::Mmap => map_words(path)?,
            LoadMode::Auto => map_words(path).or_else(|_| read_words(path))?,
        };
        Self::with_words(words, magic, expected_version)
    }

    /// Parse from raw bytes by copying into an aligned buffer (test and
    /// in-memory round-trip entry point; `read` is the zero-copy path).
    pub fn parse(bytes: &[u8], magic: [u8; 8], expected_version: u32) -> Result<Self, FlatError> {
        if !bytes.len().is_multiple_of(8) {
            return Err(FlatError::Misaligned("file length"));
        }
        let mut buf = Arc::new_zeroed_slice(bytes.len() / 8);
        let words = Arc::get_mut(&mut buf).expect("freshly allocated arc is unique");
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr() as *mut u8,
                bytes.len(),
            );
        }
        // Sound: fully written by the copy (and zero-initialized anyway).
        let words: Arc<[u64]> = unsafe { buf.assume_init() };
        Self::from_words(words, magic, expected_version)
    }

    /// Validate a pre-loaded aligned buffer.
    pub fn from_words(
        buf: Arc<[u64]>,
        magic: [u8; 8],
        expected_version: u32,
    ) -> Result<Self, FlatError> {
        Self::with_words(Words::Heap(buf), magic, expected_version)
    }

    fn with_words(buf: Words, magic: [u8; 8], expected_version: u32) -> Result<Self, FlatError> {
        let total = buf.byte_len();
        if total < HEADER_BYTES {
            return Err(FlatError::Truncated);
        }
        let bytes = buf.bytes();
        if bytes[..8] != magic {
            return Err(FlatError::BadMagic);
        }
        let word = |at: usize| u32::from_ne_bytes(bytes[at..at + 4].try_into().unwrap());
        if word(8) != ENDIAN_TAG {
            return Err(FlatError::WrongEndianness);
        }
        let version = word(12);
        if expected_version != 0 && version != expected_version {
            return Err(FlatError::UnsupportedVersion(version));
        }
        let count = word(16) as usize;
        let table_end = HEADER_BYTES
            .checked_add(
                count
                    .checked_mul(SECTION_ENTRY_BYTES)
                    .ok_or(FlatError::Truncated)?,
            )
            .ok_or(FlatError::Truncated)?;
        if table_end > total {
            return Err(FlatError::Truncated);
        }
        let mut sections = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_BYTES + i * SECTION_ENTRY_BYTES;
            let off = u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap());
            let len = u64::from_ne_bytes(bytes[at + 8..at + 16].try_into().unwrap());
            if !off.is_multiple_of(8) {
                return Err(FlatError::Misaligned("section offset"));
            }
            let end = off.checked_add(len).ok_or(FlatError::SectionBounds(i))?;
            if off < table_end as u64 || end > total as u64 {
                return Err(FlatError::SectionBounds(i));
            }
            sections.push((off as usize, len as usize));
        }
        Ok(FlatFile {
            buf,
            version,
            sections,
        })
    }

    #[inline]
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Whether the container is backed by a read-only file mapping (vs a
    /// private heap buffer).
    #[inline]
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    #[inline]
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// The single `u64` held by section `idx` (a one-word section such as
    /// a graph fingerprint); `what` names it when the length is wrong.
    pub fn word(&self, idx: usize, what: &'static str) -> Result<u64, FlatError> {
        let sec: FlatVec<u64> = self.section(idx)?;
        ensure(sec.len() == 1, what)?;
        Ok(sec[0])
    }

    /// Typed zero-copy view of section `idx`. Rejects payload lengths that
    /// are not a multiple of the element size.
    pub fn section<T: Pod>(&self, idx: usize) -> Result<FlatVec<T>, FlatError> {
        let &(byte_off, byte_len) = self
            .sections
            .get(idx)
            .ok_or(FlatError::Corrupt("missing section"))?;
        let size = std::mem::size_of::<T>();
        if !byte_len.is_multiple_of(size) {
            return Err(FlatError::Misaligned("section length"));
        }
        Ok(FlatVec {
            backing: Backing::View {
                buf: self.buf.clone(),
                byte_off,
                len: byte_len / size,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"FLATTEST";

    fn sample() -> Vec<u8> {
        let mut w = FlatWriter::new(MAGIC, 2);
        w.section::<u32>(&[1, 2, 3]);
        w.section::<u64>(&[10, 20]);
        w.section::<Point>(&[Point::new(1.5, -2.5)]);
        w.finish()
    }

    #[test]
    fn round_trips_sections() {
        let bytes = sample();
        assert_eq!(bytes.len() % 8, 0);
        let f = FlatFile::parse(&bytes, MAGIC, 2).unwrap();
        assert_eq!(f.version(), 2);
        assert_eq!(f.section_count(), 3);
        let a: FlatVec<u32> = f.section(0).unwrap();
        assert_eq!(&*a, &[1, 2, 3]);
        let b: FlatVec<u64> = f.section(1).unwrap();
        assert_eq!(&*b, &[10, 20]);
        let c: FlatVec<Point> = f.section(2).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], Point::new(1.5, -2.5));
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let bytes = sample();
        assert!(matches!(
            FlatFile::parse(&bytes, *b"OTHRMAGC", 2),
            Err(FlatError::BadMagic)
        ));
        assert!(matches!(
            FlatFile::parse(&bytes, MAGIC, 3),
            Err(FlatError::UnsupportedVersion(2))
        ));
    }

    #[test]
    fn rejects_foreign_endianness() {
        let mut bytes = sample();
        bytes[8..12].reverse();
        assert!(matches!(
            FlatFile::parse(&bytes, MAGIC, 2),
            Err(FlatError::WrongEndianness)
        ));
    }

    #[test]
    fn rejects_every_8_byte_truncation() {
        let bytes = sample();
        for cut in (0..bytes.len()).step_by(8) {
            let res = FlatFile::parse(&bytes[..cut], MAGIC, 2);
            match res {
                Err(FlatError::Truncated | FlatError::SectionBounds(_) | FlatError::BadMagic) => {}
                other => panic!("truncation to {cut} bytes not rejected: {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_unaligned_length() {
        let bytes = sample();
        assert!(matches!(
            FlatFile::parse(&bytes[..bytes.len() - 3], MAGIC, 2),
            Err(FlatError::Misaligned(_))
        ));
    }

    #[test]
    fn rejects_overflowing_section_table() {
        let mut bytes = sample();
        // Patch section 0's length to u64::MAX: offset + len overflows.
        bytes[HEADER_BYTES + 8..HEADER_BYTES + 16].copy_from_slice(&u64::MAX.to_ne_bytes());
        assert!(matches!(
            FlatFile::parse(&bytes, MAGIC, 2),
            Err(FlatError::SectionBounds(0))
        ));
    }

    #[test]
    fn rejects_misaligned_section_offset() {
        let mut bytes = sample();
        bytes[HEADER_BYTES..HEADER_BYTES + 8].copy_from_slice(&57u64.to_ne_bytes());
        assert!(matches!(
            FlatFile::parse(&bytes, MAGIC, 2),
            Err(FlatError::Misaligned(_))
        ));
    }

    #[test]
    fn rejects_elem_size_mismatch() {
        let mut w = FlatWriter::new(MAGIC, 2);
        w.section::<u32>(&[1]); // 4-byte payload
        let bytes = w.finish();
        let f = FlatFile::parse(&bytes, MAGIC, 2).unwrap();
        assert!(matches!(f.section::<u64>(0), Err(FlatError::Misaligned(_))));
        assert!(f.section::<u32>(0).is_ok());
    }

    #[test]
    fn stream_writer_is_byte_identical_to_buffered_writer() {
        let path = std::env::temp_dir().join(format!("fannr-flat-stream-{}", std::process::id()));
        let mut w = FlatStreamWriter::create(&path, MAGIC, 2, 3).unwrap();
        w.section::<u32>(&[1, 2, 3]).unwrap();
        w.section::<u64>(&[10, 20]).unwrap();
        w.section::<Point>(&[Point::new(1.5, -2.5)]).unwrap();
        w.finish().unwrap();
        let streamed = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(streamed, sample());
    }

    #[test]
    fn stream_writer_enforces_declared_section_count() {
        let path = std::env::temp_dir().join(format!("fannr-flat-count-{}", std::process::id()));
        let mut w = FlatStreamWriter::create(&path, MAGIC, 2, 1).unwrap();
        w.section::<u32>(&[1]).unwrap();
        assert!(w.section::<u32>(&[2]).is_err(), "over-declared");
        let w = FlatStreamWriter::create(&path, MAGIC, 2, 2).unwrap();
        assert!(w.finish().is_err(), "under-declared");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_load_matches_read_load() {
        let path = std::env::temp_dir().join(format!("fannr-flat-mmap-{}", std::process::id()));
        std::fs::write(&path, sample()).unwrap();
        let mapped = FlatFile::open(&path, MAGIC, 2, LoadMode::Mmap).unwrap();
        let read = FlatFile::open(&path, MAGIC, 2, LoadMode::Read).unwrap();
        assert!(mapped.is_mapped());
        assert!(!read.is_mapped());
        assert_eq!(mapped.section_count(), read.section_count());
        let a: FlatVec<u32> = mapped.section(0).unwrap();
        let b: FlatVec<u32> = read.section(0).unwrap();
        assert_eq!(&*a, &*b);
        // Views keep the mapping alive past the container handle.
        drop(mapped);
        let _ = std::fs::remove_file(&path);
        assert_eq!(&*a, &[1, 2, 3]);
    }

    #[cfg(unix)]
    #[test]
    fn mmap_rejects_what_read_rejects() {
        let path = std::env::temp_dir().join(format!("fannr-flat-mmbad-{}", std::process::id()));
        let bytes = sample();
        std::fs::write(&path, &bytes[..16]).unwrap();
        assert!(matches!(
            FlatFile::open(&path, MAGIC, 2, LoadMode::Mmap),
            Err(FlatError::Truncated)
        ));
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            FlatFile::open(&path, MAGIC, 2, LoadMode::Mmap),
            Err(FlatError::Misaligned(_))
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn auto_mode_loads_and_missing_file_errors() {
        let path = std::env::temp_dir().join(format!("fannr-flat-auto-{}", std::process::id()));
        std::fs::write(&path, sample()).unwrap();
        let f = FlatFile::open(&path, MAGIC, 2, LoadMode::Auto).unwrap();
        let a: FlatVec<u32> = f.section(0).unwrap();
        assert_eq!(&*a, &[1, 2, 3]);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            FlatFile::open(&path, MAGIC, 2, LoadMode::Auto),
            Err(FlatError::Io(_))
        ));
    }

    #[test]
    fn owned_and_view_ptr_eq() {
        let owned: FlatVec<u32> = vec![1u32, 2, 3].into();
        let clone = owned.clone();
        assert!(owned.ptr_eq(&clone));
        let other: FlatVec<u32> = vec![1u32, 2, 3].into();
        assert!(!owned.ptr_eq(&other));
        assert_eq!(owned, other);
    }
}

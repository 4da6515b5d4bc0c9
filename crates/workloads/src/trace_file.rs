//! Reading and writing memory traces as files.
//!
//! The paper drives its simulator from Pin traces. This module provides the
//! equivalent adoption path for this reproduction: a plain-text trace format
//! any instrumentation tool (Pin, DynamoRIO, `valgrind --tool=lackey`, an
//! emulator) can emit, plus a reader that replays it as a [`MemAccess`]
//! stream.
//!
//! # Format
//!
//! One record per line, whitespace separated:
//!
//! ```text
//! <L|S> <hex virtual address> <instruction gap>
//! # comments and blank lines are ignored
//! L 7f3a00001000 3
//! S 7f3a00001040 2
//! ```
//!
//! `L`/`S` mark loads and stores; the gap is the number of instructions
//! executed since the previous record (≥ 1). Addresses must lie below
//! 2^48: the simulated 4-level page table maps virtual-address bits 47:0.

use std::io::{self, BufRead, Write};

use eeat_types::{AccessKind, MemAccess, VirtAddr};

/// One past the highest address a record may name: the 4-level page table
/// indexes virtual-address bits 47:12.
const VA_LIMIT: u64 = 1 << 48;

/// Writes `accesses` to `out` in the text trace format.
///
/// # Errors
///
/// Propagates I/O errors from `out`.
///
/// # Examples
///
/// ```
/// use eeat_types::{MemAccess, VirtAddr};
/// use eeat_workloads::trace_file;
///
/// let mut buf = Vec::new();
/// trace_file::write_trace(&mut buf, [MemAccess::load(VirtAddr::new(0x1000))])?;
/// assert_eq!(String::from_utf8(buf).unwrap(), "L 1000 1\n");
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write_trace<W, I>(out: &mut W, accesses: I) -> io::Result<()>
where
    W: Write,
    I: IntoIterator<Item = MemAccess>,
{
    for access in accesses {
        let kind = match access.kind() {
            AccessKind::Load => 'L',
            AccessKind::Store => 'S',
        };
        writeln!(out, "{kind} {:x} {}", access.vaddr(), access.instructions())?;
    }
    Ok(())
}

/// Errors produced while parsing a trace.
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// A record could not be parsed (line number and message).
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceReadError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceReadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceReadError::Io(e) => Some(e),
            TraceReadError::Parse { .. } => None,
        }
    }
}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

/// Reads a complete text trace from `input`.
///
/// Blank lines and lines starting with `#` are skipped.
///
/// # Errors
///
/// Returns [`TraceReadError`] on I/O failure or the first malformed record.
///
/// # Examples
///
/// ```
/// use eeat_workloads::trace_file;
///
/// let trace = "# demo\nL 1000 1\nS 2040 3\n";
/// let accesses = trace_file::read_trace(trace.as_bytes())?;
/// assert_eq!(accesses.len(), 2);
/// assert_eq!(accesses[1].instructions(), 3);
/// # Ok::<(), trace_file::TraceReadError>(())
/// ```
pub fn read_trace<R: BufRead>(input: R) -> Result<Vec<MemAccess>, TraceReadError> {
    let mut accesses = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        accesses.push(parse_record(line).map_err(|message| TraceReadError::Parse {
            line: idx + 1,
            message,
        })?);
    }
    Ok(accesses)
}

fn parse_record(line: &str) -> Result<MemAccess, String> {
    let mut fields = line.split_whitespace();
    let kind = match fields.next() {
        Some("L") | Some("l") => AccessKind::Load,
        Some("S") | Some("s") => AccessKind::Store,
        Some(other) => return Err(format!("unknown access kind {other:?}")),
        None => return Err("empty record".into()),
    };
    let addr = fields.next().ok_or("missing address")?;
    let addr = u64::from_str_radix(addr.trim_start_matches("0x"), 16)
        .map_err(|_| format!("bad hex address {addr:?}"))?;
    if addr >= VA_LIMIT {
        return Err(format!(
            "address {addr:#x} is not below 2^48, the reach of the 4-level page table"
        ));
    }
    let gap = match fields.next() {
        Some(g) => g.parse::<u32>().map_err(|_| format!("bad gap {g:?}"))?,
        None => 1,
    };
    if gap == 0 {
        return Err("instruction gap must be at least 1".into());
    }
    if fields.next().is_some() {
        return Err("trailing fields".into());
    }
    Ok(MemAccess::new(VirtAddr::new(addr), kind, gap))
}

/// The smallest set of page-aligned regions covering every address of a
/// trace, merging touches closer than `gap_bytes` — used to construct an
/// [`AddressSpace`](../../eeat_os/struct.AddressSpace.html) for replay.
pub fn covering_regions(accesses: &[MemAccess], gap_bytes: u64) -> Vec<(u64, u64)> {
    if accesses.is_empty() {
        return Vec::new();
    }
    let mut pages: Vec<u64> = accesses.iter().map(|a| a.vaddr().raw() >> 12).collect();
    pages.sort_unstable();
    pages.dedup();

    let gap_pages = (gap_bytes >> 12).max(1);
    let mut regions = Vec::new();
    let mut start = pages[0];
    let mut last = pages[0];
    for &page in &pages[1..] {
        if page - last > gap_pages {
            regions.push((start << 12, (last - start + 1) << 12));
            start = page;
        }
        last = page;
    }
    regions.push((start << 12, (last - start + 1) << 12));
    regions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let original = vec![
            MemAccess::new(VirtAddr::new(0x1000), AccessKind::Load, 1),
            MemAccess::new(VirtAddr::new(0xdead_b000), AccessKind::Store, 7),
            MemAccess::new(VirtAddr::new(0x42), AccessKind::Load, 2),
        ];
        let mut buf = Vec::new();
        write_trace(&mut buf, original.clone()).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn comments_blanks_and_defaults() {
        let text = "# header\n\nL 0x1000\n  S 2000 4  \n";
        let parsed = read_trace(text.as_bytes()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].instructions(), 1, "gap defaults to 1");
        assert_eq!(parsed[0].vaddr().raw(), 0x1000);
        assert_eq!(parsed[1].kind(), AccessKind::Store);
    }

    #[test]
    fn parse_errors_are_located() {
        for (text, needle) in [
            ("X 1000 1\n", "unknown access kind"),
            ("L zzzz 1\n", "bad hex"),
            ("L 1000 0\n", "at least 1"),
            ("L 1000 1 extra\n", "trailing"),
            ("L\n", "missing address"),
            ("L 1000000000000 1\n", "not below 2^48"),
        ] {
            let err = read_trace(text.as_bytes()).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line 1"), "{msg}");
            assert!(msg.contains(needle), "{msg} should mention {needle}");
        }
    }

    #[test]
    fn covering_regions_merges_nearby_pages() {
        let accesses = vec![
            MemAccess::load(VirtAddr::new(0x1000)),
            MemAccess::load(VirtAddr::new(0x3000)), // 2 pages away: merged
            MemAccess::load(VirtAddr::new(0x100_0000)), // far: new region
        ];
        let regions = covering_regions(&accesses, 16 << 12);
        assert_eq!(regions, vec![(0x1000, 0x3000), (0x100_0000, 0x1000)]);
        assert!(covering_regions(&[], 4096).is_empty());
    }
}

//! Trace serialization: CSV for plotting, a compact binary format for
//! archiving capture campaigns.

use std::io::{BufRead, BufReader, Read, Write};

use crate::{AccessKind, MemoryEvent, Trace, TraceBuilder};

/// Error type for trace (de)serialization.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed input at the given 1-based line/record number.
    Parse {
        /// Record index.
        record: usize,
        /// Explanation.
        detail: String,
    },
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::Parse { record, detail } => {
                write!(f, "malformed trace record {record}: {detail}")
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes the trace as CSV (`cycle,address,is_write`), with a two-line
/// header carrying the block geometry.
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on write failure.
pub fn write_csv<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    writeln!(
        w,
        "# block_bytes={} element_bytes={}",
        trace.block_bytes(),
        trace.element_bytes()
    )?;
    writeln!(w, "cycle,address,is_write")?;
    let mut written = Ok(());
    trace.events().for_each(|ev| {
        if written.is_ok() {
            written = writeln!(
                w,
                "{},{},{}",
                ev.cycle,
                ev.addr,
                u8::from(ev.kind.is_write())
            );
        }
    });
    Ok(written?)
}

/// Reads a trace written by [`write_csv`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed content, including
/// a record whose cycle is below its predecessor's: the segmenter requires
/// events in time order.
pub fn read_csv<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    parse_csv(r, true)
}

/// [`read_csv`] that accepts cycles running backwards, for tools that
/// diagnose corrupted traces (`cnnre-audit`'s T001).
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed content.
pub fn read_csv_unordered<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    parse_csv(r, false)
}

fn parse_csv<R: Read>(r: R, ordered: bool) -> Result<Trace, TraceIoError> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().ok_or(TraceIoError::Parse {
        record: 0,
        detail: "empty input".to_string(),
    })??;
    let parse_kv = |key: &str| -> Result<u64, TraceIoError> {
        header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .ok_or(TraceIoError::Parse {
                record: 0,
                detail: format!("missing {key}"),
            })
    };
    let block_bytes = parse_kv("block_bytes")?;
    let element_bytes = parse_kv("element_bytes")?;
    check_geometry(block_bytes, element_bytes)?;
    let mut trace = TraceBuilder::new(block_bytes, element_bytes);
    let mut prev = None;
    for (i, line) in lines.enumerate() {
        let line = line?;
        if i == 0 && line.starts_with("cycle") {
            continue; // column header
        }
        if line.trim().is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let mut next = |name: &str| {
            fields.next().ok_or(TraceIoError::Parse {
                record: i + 1,
                detail: format!("missing field {name}"),
            })
        };
        let cycle = next("cycle")?
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse {
                record: i + 1,
                detail: format!("cycle: {e}"),
            })?;
        let addr = next("address")?
            .trim()
            .parse()
            .map_err(|e| TraceIoError::Parse {
                record: i + 1,
                detail: format!("address: {e}"),
            })?;
        check_aligned(addr, block_bytes, i + 1)?;
        if ordered {
            check_ordered(cycle, prev, i + 1)?;
        }
        let kind = match next("is_write")?.trim() {
            "0" => AccessKind::Read,
            "1" => AccessKind::Write,
            other => {
                return Err(TraceIoError::Parse {
                    record: i + 1,
                    detail: format!("is_write must be 0/1, got '{other}'"),
                })
            }
        };
        trace.append(MemoryEvent { cycle, addr, kind });
        prev = Some(cycle);
    }
    Ok(trace.finish())
}

/// Rejects a header geometry [`Trace::from_parts`] would panic on.
fn check_geometry(block_bytes: u64, element_bytes: u64) -> Result<(), TraceIoError> {
    if !crate::event::valid_geometry(block_bytes, element_bytes) {
        return Err(TraceIoError::Parse {
            record: 0,
            detail: format!(
                "block_bytes={block_bytes} is not a positive multiple of \
                 element_bytes={element_bytes}"
            ),
        });
    }
    Ok(())
}

/// Rejects an address that is not a multiple of the block size: every
/// transaction covers one whole block.
fn check_aligned(addr: u64, block_bytes: u64, record: usize) -> Result<(), TraceIoError> {
    if !addr.is_multiple_of(block_bytes) {
        return Err(TraceIoError::Parse {
            record,
            detail: format!("address {addr:#x} is not aligned to the {block_bytes}-byte block"),
        });
    }
    Ok(())
}

/// Rejects a cycle below the previous event's.
fn check_ordered(cycle: u64, prev: Option<u64>, record: usize) -> Result<(), TraceIoError> {
    match prev {
        Some(p) if cycle < p => Err(TraceIoError::Parse {
            record,
            detail: format!("cycle {cycle} is below the previous record's {p}"),
        }),
        _ => Ok(()),
    }
}

const BINARY_MAGIC: &[u8; 8] = b"CNNRETR1";

/// Writes the trace in a compact binary format (magic, geometry, then
/// 17 bytes per event, little-endian).
///
/// # Errors
///
/// Returns [`TraceIoError::Io`] on write failure.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceIoError> {
    w.write_all(BINARY_MAGIC)?;
    w.write_all(&trace.block_bytes().to_le_bytes())?;
    w.write_all(&trace.element_bytes().to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    let mut written = Ok(());
    trace.events().for_each(|ev| {
        if written.is_ok() {
            let mut rec = [0u8; 17];
            rec[0..8].copy_from_slice(&ev.cycle.to_le_bytes());
            rec[8..16].copy_from_slice(&ev.addr.to_le_bytes());
            rec[16] = u8::from(ev.kind.is_write());
            written = w.write_all(&rec);
        }
    });
    Ok(written?)
}

/// Reads a trace written by [`write_binary`].
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed content, including
/// a record whose cycle is below its predecessor's.
pub fn read_binary<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    parse_binary(r, true)
}

/// [`read_binary`] that accepts cycles running backwards, for tools that
/// diagnose corrupted traces.
///
/// # Errors
///
/// Returns [`TraceIoError`] on I/O failure or malformed content.
pub fn read_binary_unordered<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    parse_binary(r, false)
}

fn parse_binary<R: Read>(r: R, ordered: bool) -> Result<Trace, TraceIoError> {
    // Records are read 17 bytes at a time.
    let mut r = BufReader::new(r);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BINARY_MAGIC {
        return Err(TraceIoError::Parse {
            record: 0,
            detail: "bad magic".to_string(),
        });
    }
    let mut u64buf = [0u8; 8];
    let mut read_u64 = |r: &mut BufReader<R>| -> Result<u64, TraceIoError> {
        r.read_exact(&mut u64buf)?;
        Ok(u64::from_le_bytes(u64buf))
    };
    let block_bytes = read_u64(&mut r)?;
    let element_bytes = read_u64(&mut r)?;
    check_geometry(block_bytes, element_bytes)?;
    // The header's count is outside input: memory is committed only as
    // records actually arrive.
    let count = read_u64(&mut r)?;
    let mut trace = TraceBuilder::new(block_bytes, element_bytes);
    let mut prev = None;
    for i in 0..count as usize {
        let mut rec = [0u8; 17];
        r.read_exact(&mut rec).map_err(|e| TraceIoError::Parse {
            record: i + 1,
            detail: format!("truncated: {e}"),
        })?;
        // lint:allow(panic): fixed-width slices of the 17-byte record buffer
        let cycle = u64::from_le_bytes(rec[0..8].try_into().expect("8 bytes"));
        // lint:allow(panic): fixed-width slices of the 17-byte record buffer
        let addr = u64::from_le_bytes(rec[8..16].try_into().expect("8 bytes"));
        let kind = match rec[16] {
            0 => AccessKind::Read,
            1 => AccessKind::Write,
            other => {
                return Err(TraceIoError::Parse {
                    record: i + 1,
                    detail: format!("bad kind byte {other}"),
                })
            }
        };
        check_aligned(addr, block_bytes, i + 1)?;
        if ordered {
            check_ordered(cycle, prev, i + 1)?;
        }
        trace.append(MemoryEvent { cycle, addr, kind });
        prev = Some(cycle);
    }
    Ok(trace.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(64, 4);
        b.record(0, 0, AccessKind::Write);
        b.record(3, 128, AccessKind::Read);
        b.record(9, 64, AccessKind::Read);
        b.finish()
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_csv(&t, &mut buf).unwrap();
        let back = read_csv(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(read_csv(&b"nonsense"[..]).is_err());
        let mut buf = Vec::new();
        write_csv(&sample(), &mut buf).unwrap();
        buf.extend_from_slice(b"1,2,banana\n");
        assert!(read_csv(&buf[..]).is_err());
    }

    #[test]
    fn binary_rejects_truncation_and_bad_magic() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        assert!(read_binary(&buf[..buf.len() - 3]).is_err());
        buf[0] = b'X';
        assert!(read_binary(&buf[..]).is_err());
    }

    /// A binary header (magic, block bytes, element bytes, event count).
    fn binary_header(block_bytes: u64, element_bytes: u64, count: u64) -> Vec<u8> {
        let mut buf = BINARY_MAGIC.to_vec();
        for v in [block_bytes, element_bytes, count] {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        buf
    }

    fn is_parse_error(r: Result<Trace, TraceIoError>) -> bool {
        matches!(r, Err(TraceIoError::Parse { .. }))
    }

    #[test]
    fn csv_rejects_zero_element_size() {
        let csv = "# block_bytes=64 element_bytes=0\ncycle,address,is_write\n";
        assert!(is_parse_error(read_csv(csv.as_bytes())));
    }

    #[test]
    fn csv_rejects_block_not_multiple_of_element() {
        let csv = "# block_bytes=10 element_bytes=4\ncycle,address,is_write\n";
        assert!(is_parse_error(read_csv(csv.as_bytes())));
    }

    #[test]
    fn csv_rejects_unaligned_address() {
        let csv = "# block_bytes=64 element_bytes=4\ncycle,address,is_write\n0,64,1\n1,65,0\n";
        match read_csv(csv.as_bytes()) {
            Err(TraceIoError::Parse { record, .. }) => assert_eq!(record, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn binary_rejects_zero_element_size() {
        assert!(is_parse_error(read_binary(&binary_header(64, 0, 0)[..])));
    }

    #[test]
    fn binary_rejects_block_not_multiple_of_element() {
        assert!(is_parse_error(read_binary(&binary_header(10, 4, 0)[..])));
    }

    #[test]
    fn binary_rejects_unaligned_address() {
        let mut buf = binary_header(64, 4, 1);
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&65u64.to_le_bytes());
        buf.push(0);
        assert!(is_parse_error(read_binary(&buf[..])));
    }

    #[test]
    fn csv_rejects_time_running_backwards() {
        let csv =
            "# block_bytes=64 element_bytes=4\ncycle,address,is_write\n5,0,1\n5,64,0\n4,128,0\n";
        match read_csv(csv.as_bytes()) {
            Err(TraceIoError::Parse { record, .. }) => assert_eq!(record, 4),
            other => panic!("expected a parse error, got {other:?}"),
        }
        let t = read_csv_unordered(csv.as_bytes()).expect("unordered read accepts it");
        assert_eq!(t.events().nth(2).unwrap().cycle, 4);
    }

    #[test]
    fn binary_rejects_time_running_backwards() {
        let mut buf = binary_header(64, 4, 3);
        for (cycle, addr) in [(5u64, 0u64), (5, 64), (4, 128)] {
            buf.extend_from_slice(&cycle.to_le_bytes());
            buf.extend_from_slice(&addr.to_le_bytes());
            buf.push(0);
        }
        match read_binary(&buf[..]) {
            Err(TraceIoError::Parse { record, .. }) => assert_eq!(record, 3),
            other => panic!("expected a parse error, got {other:?}"),
        }
        let t = read_binary_unordered(&buf[..]).expect("unordered read accepts it");
        assert_eq!(t.events().nth(2).unwrap().cycle, 4);
    }

    #[test]
    fn binary_huge_count_then_eof_is_an_error() {
        assert!(is_parse_error(read_binary(
            &binary_header(64, 4, u64::MAX)[..]
        )));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = TraceBuilder::new(64, 4).finish();
        let mut csv = Vec::new();
        write_csv(&t, &mut csv).unwrap();
        assert_eq!(read_csv(&csv[..]).unwrap(), t);
        let mut bin = Vec::new();
        write_binary(&t, &mut bin).unwrap();
        assert_eq!(read_binary(&bin[..]).unwrap(), t);
    }
}

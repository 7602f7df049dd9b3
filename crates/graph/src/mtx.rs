//! Matrix Market (`.mtx`) coordinate-format I/O.
//!
//! The paper's inputs come from the SuiteSparse matrix collection, which
//! distributes graphs in this format. Supporting it lets users run the
//! reproduction on the *original* inputs when they have them, instead of
//! the bundled synthetic stand-ins.

use std::collections::HashSet;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::num::IntErrorKind;

use crate::builder::GraphBuilder;
use crate::csr::Csr;

/// Error parsing a Matrix Market stream.
#[derive(Debug)]
pub enum ParseMtxError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structural problem with the file contents; the string describes it.
    Malformed(String),
    /// The `%%MatrixMarket` banner or the size line is incomplete
    /// (fewer fields than the format requires).
    TruncatedHeader {
        /// The offending header/size line.
        line: String,
    },
    /// A data line names a vertex outside `1..=vertices` — including
    /// indices too large to represent at all (overflow is rejected, not
    /// wrapped).
    IndexOutOfRange {
        /// Row index as written in the file.
        row: String,
        /// Column index as written in the file.
        col: String,
        /// Number of vertices declared by the size line.
        vertices: u64,
    },
    /// The number of data lines does not match the declared entry
    /// count. Detected as soon as the declared count is exceeded, so a
    /// lying header cannot make the parser buffer unbounded input.
    WrongEntryCount {
        /// Entries declared by the size line.
        declared: u64,
        /// Entries actually present (a lower bound when over-long
        /// input was abandoned early).
        found: u64,
    },
    /// The size line declares more than [`MAX_MTX_VERTICES`] vertices.
    /// Rejected before the graph is allocated, so a short header cannot
    /// ask for tens of gigabytes.
    TooManyVertices {
        /// Vertices declared by the size line.
        declared: u64,
    },
    /// The stream is dominated by duplicate edges — a malformed or
    /// adversarial file (coordinate format forbids duplicates); the
    /// parser refuses to keep burning time deduplicating it.
    DuplicateFlood {
        /// Duplicate data lines seen before giving up.
        duplicates: u64,
        /// Entries declared by the size line.
        declared: u64,
    },
}

impl fmt::Display for ParseMtxError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseMtxError::Io(e) => write!(f, "i/o error reading matrix market data: {e}"),
            ParseMtxError::Malformed(m) => write!(f, "malformed matrix market data: {m}"),
            ParseMtxError::TruncatedHeader { line } => {
                write!(f, "truncated matrix market header: {line:?}")
            }
            ParseMtxError::IndexOutOfRange { row, col, vertices } => write!(
                f,
                "vertex index out of range: ({row}, {col}) in a {vertices}-vertex matrix"
            ),
            ParseMtxError::WrongEntryCount { declared, found } => {
                write!(f, "expected {declared} entries, found {found}")
            }
            ParseMtxError::TooManyVertices { declared } => write!(
                f,
                "size line declares {declared} vertices, more than the {MAX_MTX_VERTICES} supported"
            ),
            ParseMtxError::DuplicateFlood {
                duplicates,
                declared,
            } => write!(
                f,
                "duplicate-edge flood: {duplicates} duplicate entries in a stream declaring \
                 {declared}"
            ),
        }
    }
}

impl std::error::Error for ParseMtxError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseMtxError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseMtxError {
    fn from(e: io::Error) -> Self {
        ParseMtxError::Io(e)
    }
}

/// The most vertices a Matrix Market size line may declare: 2^28, the
/// size of the largest `rmat<N>` tier `repro bench --tier` accepts.
/// [`read_mtx`] allocates the graph for the declared vertex count, so
/// the bound caps what a header alone can make it allocate.
pub const MAX_MTX_VERTICES: u64 = 1 << 28;

fn malformed(msg: impl Into<String>) -> ParseMtxError {
    ParseMtxError::Malformed(msg.into())
}

/// Reads a graph from Matrix Market coordinate format, applying the
/// paper's normalization (self-loops removed, symmetrized, 0-based ids).
///
/// Both `general` and `symmetric` headers are accepted; numeric values on
/// data lines (for non-`pattern` files) are ignored. The result is always
/// a directed symmetric graph, matching §V-A of the paper.
///
/// # Errors
///
/// Returns [`ParseMtxError`] if reading fails or the stream is not valid
/// coordinate-format Matrix Market data (non-square size header, more
/// than [`MAX_MTX_VERTICES`] vertices, indices out of range, wrong entry
/// count, …).
///
/// # Example
///
/// ```
/// use ggs_graph::mtx::read_mtx;
///
/// let data = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n1 2\n2 3\n";
/// let g = read_mtx(data.as_bytes())?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 4); // symmetrized
/// # Ok::<(), ggs_graph::mtx::ParseMtxError>(())
/// ```
pub fn read_mtx<R: BufRead>(reader: R) -> Result<Csr, ParseMtxError> {
    let mut lines = reader.lines();
    let header = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                if line.starts_with("%%MatrixMarket") {
                    break line;
                }
                if !line.trim().is_empty() {
                    return Err(malformed("missing %%MatrixMarket header"));
                }
            }
            None => return Err(malformed("empty input")),
        }
    };
    // The banner is `%%MatrixMarket object format field symmetry`.
    if header.split_whitespace().count() < 5 {
        return Err(ParseMtxError::TruncatedHeader { line: header });
    }
    let header_lc = header.to_ascii_lowercase();
    if !header_lc.contains("coordinate") {
        return Err(malformed("only coordinate format is supported"));
    }

    // Skip comments, find the size line.
    let size_line = loop {
        match lines.next() {
            Some(line) => {
                let line = line?;
                let trimmed = line.trim();
                if trimmed.is_empty() || trimmed.starts_with('%') {
                    continue;
                }
                break line;
            }
            None => return Err(malformed("missing size line")),
        }
    };
    let dims: Vec<u64> = size_line
        .split_whitespace()
        .map(|t| t.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|e| malformed(format!("bad size line: {e}")))?;
    if dims.len() < 3 {
        return Err(ParseMtxError::TruncatedHeader { line: size_line });
    }
    let [rows, cols, nnz] = dims[..] else {
        return Err(malformed("size line must have exactly three fields"));
    };
    if rows != cols {
        return Err(malformed(format!(
            "matrix must be square, got {rows}x{cols}"
        )));
    }
    if rows > MAX_MTX_VERTICES {
        return Err(ParseMtxError::TooManyVertices { declared: rows });
    }
    let n = rows as u32;

    let mut builder = GraphBuilder::new(n).symmetric(true);
    let mut seen = 0u64;
    let mut duplicates = 0u64;
    let mut edges = HashSet::new();
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        // Bail as soon as the declared count is exceeded; a lying
        // header must not make us buffer an unbounded stream.
        if seen == nnz {
            return Err(ParseMtxError::WrongEntryCount {
                declared: nnz,
                found: seen + 1,
            });
        }
        let mut it = trimmed.split_whitespace();
        let (Some(r), Some(c)) = (it.next(), it.next()) else {
            return Err(malformed(format!(
                "entry line needs two indices: {trimmed:?}"
            )));
        };
        let bad_index = |row: &str, col: &str| ParseMtxError::IndexOutOfRange {
            row: row.to_string(),
            col: col.to_string(),
            vertices: rows,
        };
        let rv: u64 = parse_index(r, "row", || bad_index(r, c))?;
        let cv: u64 = parse_index(c, "col", || bad_index(r, c))?;
        if rv == 0 || cv == 0 || rv > rows || cv > cols {
            return Err(bad_index(r, c));
        }
        seen += 1;
        let edge = ((rv - 1) as u32, (cv - 1) as u32);
        if edges.insert(edge) {
            builder = builder.edge(edge.0, edge.1);
        } else {
            duplicates += 1;
            if duplicates >= DUPLICATE_FLOOD_FLOOR && duplicates > seen - duplicates {
                return Err(ParseMtxError::DuplicateFlood {
                    duplicates,
                    declared: nnz,
                });
            }
        }
    }
    if seen != nnz {
        return Err(ParseMtxError::WrongEntryCount {
            declared: nnz,
            found: seen,
        });
    }
    builder.build().map_err(|e| malformed(e.to_string()))
}

/// A stream is a duplicate flood once most of its entries are repeats
/// *and* there are at least this many of them; small files with a few
/// stray duplicates are still deduplicated silently.
const DUPLICATE_FLOOD_FLOOR: u64 = 4096;

/// Parses a 1-based vertex index, mapping overflow (an index too large
/// to represent at all) to the caller's out-of-range error rather than
/// a generic parse failure.
fn parse_index(
    token: &str,
    which: &str,
    out_of_range: impl FnOnce() -> ParseMtxError,
) -> Result<u64, ParseMtxError> {
    token.parse::<u64>().map_err(|e| {
        if *e.kind() == IntErrorKind::PosOverflow {
            out_of_range()
        } else {
            malformed(format!("bad {which} index: {e}"))
        }
    })
}

/// Writes a graph in Matrix Market coordinate `pattern general` format
/// with 1-based indices.
///
/// # Errors
///
/// Returns any I/O error from the underlying writer.
pub fn write_mtx<W: Write>(graph: &Csr, mut writer: W) -> io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate pattern general")?;
    writeln!(
        writer,
        "{} {} {}",
        graph.num_vertices(),
        graph.num_vertices(),
        graph.num_edges()
    )?;
    for (s, t) in graph.edges() {
        writeln!(writer, "{} {}", s + 1, t + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pattern_symmetric() {
        let data =
            "%%MatrixMarket matrix coordinate pattern symmetric\n% comment\n4 4 3\n1 2\n2 3\n3 4\n";
        let g = read_mtx(data.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 6);
        assert!(g.is_symmetric());
    }

    #[test]
    fn parses_real_values_and_drops_self_loops() {
        let data =
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 5.0\n1 2 1.5\n2 1 2.5\n";
        let g = read_mtx(data.as_bytes()).unwrap();
        assert!(!g.has_self_loops());
        assert_eq!(g.num_edges(), 2); // (0,1) and (1,0)
    }

    #[test]
    fn rejects_vertex_counts_above_the_bound_before_allocating() {
        for declared in [u64::from(u32::MAX), MAX_MTX_VERTICES + 1] {
            let data = format!(
                "%%MatrixMarket matrix coordinate pattern symmetric\n{declared} {declared} 0\n"
            );
            let err = read_mtx(data.as_bytes()).unwrap_err();
            assert!(
                matches!(err, ParseMtxError::TooManyVertices { declared: d } if d == declared),
                "{declared}: {err}"
            );
            assert!(err.to_string().contains(&MAX_MTX_VERTICES.to_string()));
        }
    }

    #[test]
    fn roundtrip_through_write() {
        let g = crate::GraphBuilder::new(5)
            .edges([(0, 1), (1, 2), (2, 3), (3, 4)])
            .symmetric(true)
            .build()
            .unwrap();
        let mut buf = Vec::new();
        write_mtx(&g, &mut buf).unwrap();
        let g2 = read_mtx(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_non_square() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n3 4 1\n1 2\n";
        assert!(matches!(
            read_mtx(data.as_bytes()),
            Err(ParseMtxError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 2\n";
        assert!(matches!(
            read_mtx(data.as_bytes()),
            Err(ParseMtxError::WrongEntryCount {
                declared: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn bails_on_excess_entries_without_reading_the_rest() {
        // Declares one entry but carries three; the parser must stop at
        // the second rather than buffer the whole stream first.
        let data = "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 2\n2 3\n1 3\n";
        assert!(matches!(
            read_mtx(data.as_bytes()),
            Err(ParseMtxError::WrongEntryCount {
                declared: 1,
                found: 2
            })
        ));
    }

    #[test]
    fn rejects_out_of_range_index() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 9\n";
        assert!(matches!(
            read_mtx(data.as_bytes()),
            Err(ParseMtxError::IndexOutOfRange { vertices: 2, .. })
        ));
    }

    #[test]
    fn rejects_overflowing_index_instead_of_wrapping() {
        // 2^64 does not fit in u64; it must surface as out-of-range,
        // not as a wrapped-around small index or a generic parse error.
        let data =
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 18446744073709551616\n";
        let err = read_mtx(data.as_bytes()).unwrap_err();
        match err {
            ParseMtxError::IndexOutOfRange { col, vertices, .. } => {
                assert_eq!(col, "18446744073709551616");
                assert_eq!(vertices, 2);
            }
            other => panic!("expected IndexOutOfRange, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_banner() {
        let data = "%%MatrixMarket matrix coordinate\n3 3 1\n1 2\n";
        assert!(matches!(
            read_mtx(data.as_bytes()),
            Err(ParseMtxError::TruncatedHeader { .. })
        ));
    }

    #[test]
    fn rejects_truncated_size_line() {
        let data = "%%MatrixMarket matrix coordinate pattern general\n3 3\n1 2\n";
        assert!(matches!(
            read_mtx(data.as_bytes()),
            Err(ParseMtxError::TruncatedHeader { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_edge_flood() {
        let nnz = 10_000;
        let mut data = format!("%%MatrixMarket matrix coordinate pattern general\n3 3 {nnz}\n");
        for _ in 0..nnz {
            data.push_str("1 2\n");
        }
        match read_mtx(data.as_bytes()).unwrap_err() {
            ParseMtxError::DuplicateFlood {
                duplicates,
                declared,
            } => {
                assert_eq!(declared, nnz);
                assert!(duplicates >= 4096, "tripped too early: {duplicates}");
                assert!(duplicates < nnz, "should bail before consuming the flood");
            }
            other => panic!("expected DuplicateFlood, got {other:?}"),
        }
    }

    #[test]
    fn tolerates_a_few_stray_duplicates() {
        // Coordinate format forbids duplicates, but real-world files
        // carry the odd repeat; those still dedup silently.
        let data = "%%MatrixMarket matrix coordinate pattern general\n4 4 4\n1 2\n1 2\n2 3\n3 4\n";
        let g = read_mtx(data.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 6); // 3 unique edges, symmetrized
    }

    #[test]
    fn rejects_missing_header() {
        let data = "3 3 1\n1 2\n";
        assert!(read_mtx(data.as_bytes()).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let err = read_mtx("".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("malformed"));
        let typed = ParseMtxError::IndexOutOfRange {
            row: "1".into(),
            col: "99".into(),
            vertices: 2,
        };
        assert_eq!(
            format!("{typed}"),
            "vertex index out of range: (1, 99) in a 2-vertex matrix"
        );
    }
}

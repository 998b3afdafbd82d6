//! MatrixMarket coordinate I/O — the exchange format SuiteSparse and the
//! post-2013 GPU-graph literature distribute adjacency matrices in.
//!
//! Only the slice of the spec a graph loader needs is supported: the
//! `matrix coordinate` object with `pattern` / `real` / `integer` fields
//! and `general` / `symmetric` symmetry. Entries are treated as
//! undirected edges regardless of symmetry class (the paper's graphs are
//! simple and undirected): both orientations collapse to one edge,
//! self-loops are dropped, duplicates merged, and any stored value is
//! ignored. The declared dimension is honored, so isolated vertices
//! survive a round trip — unlike the SNAP edge-list reader, which only
//! sees vertices with incident edges.

use crate::graph::Graph;
use crate::io::IoError;
use std::io::{BufRead, Write};

/// Most entries the reader reserves room for up front, whatever the
/// dimension line declares.
const MAX_RESERVE: u64 = 1 << 20;

/// Reads a MatrixMarket coordinate file as an undirected simple graph.
///
/// Returns the graph together with the `new → external` id map the
/// edge-list reader also produces; MatrixMarket ids are dense and
/// 1-based, so the map is simply `v ↦ v + 1`.
///
/// # Errors
///
/// [`IoError::Format`] for a missing/unsupported banner, a non-square
/// dimension line, out-of-range indices, or an entry count that differs
/// from the declared nnz; [`IoError::Parse`] for
/// malformed entry lines; [`IoError::Io`] for reader failures.
pub fn read_matrix_market<R: BufRead>(reader: R) -> Result<(Graph, Vec<u64>), IoError> {
    let mut lines = reader.lines().enumerate();

    // Banner: %%MatrixMarket matrix coordinate <field> <symmetry>
    let (lineno, banner) = loop {
        match lines.next() {
            Some((i, line)) => {
                let line = line?;
                if !line.trim().is_empty() {
                    break (i, line);
                }
            }
            None => {
                return Err(IoError::Format {
                    line: 1,
                    msg: "empty file: expected a %%MatrixMarket banner".to_string(),
                });
            }
        }
    };
    let fields: Vec<String> = banner
        .split_whitespace()
        .map(str::to_ascii_lowercase)
        .collect();
    let bad_banner = |msg: &str| IoError::Format {
        line: lineno + 1,
        msg: format!("{msg}, got {:?}", banner.trim()),
    };
    if fields.len() < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(bad_banner(
            "expected `%%MatrixMarket matrix coordinate <field> <symmetry>`",
        ));
    }
    if fields[2] != "coordinate" {
        return Err(bad_banner(
            "only the coordinate (sparse) format is supported",
        ));
    }
    let field = fields[3].as_str();
    if !matches!(field, "pattern" | "real" | "integer") {
        return Err(bad_banner("unsupported field type"));
    }
    if let Some(sym) = fields.get(4) {
        if !matches!(sym.as_str(), "general" | "symmetric") {
            return Err(bad_banner("unsupported symmetry class"));
        }
    }

    // Dimension line: rows cols nnz (after % comments).
    let (n, declared_nnz, dim_line) = loop {
        let Some((i, line)) = lines.next() else {
            return Err(IoError::Format {
                line: lineno + 2,
                msg: "missing `rows cols nnz` dimension line".to_string(),
            });
        };
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let nums: Vec<Option<u64>> = t.split_whitespace().map(|s| s.parse().ok()).collect();
        match nums.as_slice() {
            [Some(r), Some(c), Some(nnz)] => {
                if r != c {
                    return Err(IoError::Format {
                        line: i + 1,
                        msg: format!("adjacency matrix must be square, got {r}x{c}"),
                    });
                }
                if *r > u64::from(u32::MAX) {
                    return Err(IoError::Format {
                        line: i + 1,
                        msg: format!("dimension {r} exceeds the u32 vertex space"),
                    });
                }
                break (*r as u32, *nnz, i);
            }
            _ => {
                return Err(IoError::Parse {
                    line: i + 1,
                    content: t.to_string(),
                });
            }
        }
    };

    // The header is untrusted: reserve at most a bounded prefix of the
    // declared entries and let the vector grow with the real ones.
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(declared_nnz.min(MAX_RESERVE) as usize);
    let mut entries = 0u64;
    let mut last_line = dim_line;
    for (i, line) in lines {
        let line = line?;
        last_line = i;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        entries += 1;
        if entries > declared_nnz {
            return Err(IoError::Format {
                line: i + 1,
                msg: format!("more entries than the declared nnz {declared_nnz}"),
            });
        }
        let mut it = t.split_whitespace();
        let parse = |s: Option<&str>| -> Option<u64> { s.and_then(|x| x.parse().ok()) };
        let (u, v) = match (parse(it.next()), parse(it.next())) {
            (Some(u), Some(v)) => (u, v),
            _ => {
                return Err(IoError::Parse {
                    line: i + 1,
                    content: t.to_string(),
                });
            }
        };
        // pattern entries have no value; real/integer carry one. Accept
        // either, but a non-numeric trailer is malformed.
        let trailer = it.next();
        if it.next().is_some() || (trailer.is_some() && trailer.unwrap().parse::<f64>().is_err()) {
            return Err(IoError::Parse {
                line: i + 1,
                content: t.to_string(),
            });
        }
        if u == 0 || v == 0 || u > u64::from(n) || v > u64::from(n) {
            return Err(IoError::Format {
                line: i + 1,
                msg: format!("entry ({u}, {v}) outside the declared 1..={n} vertex range"),
            });
        }
        if u == v {
            continue; // drop self-loops; the paper's graphs are simple
        }
        edges.push(((u - 1) as u32, (v - 1) as u32));
    }
    if entries != declared_nnz {
        return Err(IoError::Format {
            line: last_line + 1,
            msg: format!("file ends after {entries} of the declared {declared_nnz} entries"),
        });
    }
    let g = Graph::from_edges(n, &edges).map_err(IoError::Graph)?;
    let back: Vec<u64> = (1..=u64::from(n)).collect();
    Ok((g, back))
}

/// Writes `g` as a `pattern symmetric` MatrixMarket coordinate file:
/// the lower triangle of the adjacency matrix, one 1-based `i j` entry
/// per undirected edge.
///
/// # Errors
///
/// Propagates writer failures.
pub fn write_matrix_market<W: Write>(g: &Graph, mut w: W) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate pattern symmetric")?;
    writeln!(w, "% trigon graph: n = {}, m = {}", g.n(), g.m())?;
    writeln!(w, "{} {} {}", g.n(), g.n(), g.m())?;
    for (u, v) in g.edges() {
        // edges() yields u < v; the symmetric class stores i >= j.
        writeln!(w, "{} {}", v + 1, u + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn roundtrip_preserves_structure_and_isolates() {
        let g = gen::rmat(256, 1024, (0.57, 0.19, 0.19, 0.05), 7);
        let mut buf = Vec::new();
        write_matrix_market(&g, &mut buf).unwrap();
        let (g2, back) = read_matrix_market(buf.as_slice()).unwrap();
        // The declared dimension keeps isolated R-MAT vertices, so the
        // CSR round-trips bit-identically — no remapping.
        assert_eq!(g2.n(), g.n());
        assert_eq!(g2.m(), g.m());
        assert_eq!(back, (1..=u64::from(g.n())).collect::<Vec<_>>());
        let a: Vec<(u32, u32)> = g.edges().collect();
        let b: Vec<(u32, u32)> = g2.edges().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn reads_general_with_values_and_merges_orientations() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a comment\n\
                    4 4 5\n\
                    1 2 0.5\n\
                    2 1 0.5\n\
                    3 3 1.0\n\
                    2 4 2.0\n\
                    4 3 -1\n";
        let (g, back) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 3); // (1,2) dedup'd, (3,3) self-loop dropped
        assert_eq!(back, vec![1, 2, 3, 4]);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 3) && g.has_edge(2, 3));
    }

    #[test]
    fn pattern_entries_need_no_value() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n";
        let (g, _) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
    }

    #[test]
    fn rejects_bad_banner_shape_and_range() {
        let e = read_matrix_market("1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(e, IoError::Format { line: 1, .. }), "{e}");
        let e = read_matrix_market("%%MatrixMarket matrix array real general\n3 3 0\n".as_bytes())
            .unwrap_err();
        assert!(matches!(e, IoError::Format { .. }), "{e}");
        let e = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n3 4 0\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(e, IoError::Format { line: 2, .. }), "{e}");
        let e = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 9\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(e, IoError::Format { line: 3, .. }), "{e}");
        let e = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n1 two\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 3, .. }), "{e}");
    }

    #[test]
    fn entry_count_must_match_the_declared_nnz() {
        // A huge declared nnz is not reserved up front: the short file is
        // rejected at its end, not aborted on an allocation.
        let e = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n4 4 4000000000\n1 2\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(e, IoError::Format { line: 3, .. }), "{e}");
        let e = read_matrix_market(
            "%%MatrixMarket matrix coordinate pattern general\n4 4 1\n1 2\n% c\n2 3\n".as_bytes(),
        )
        .unwrap_err();
        assert!(matches!(e, IoError::Format { line: 5, .. }), "{e}");
        // Self-loops are entries too, though they add no edge.
        let text = "%%MatrixMarket matrix coordinate pattern general\n3 3 2\n1 1\n2 1\n";
        assert_eq!(read_matrix_market(text.as_bytes()).unwrap().0.m(), 1);
    }

    #[test]
    fn empty_matrix_is_isolated_vertices() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n5 5 0\n";
        let (g, _) = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!((g.n(), g.m()), (5, 0));
    }
}

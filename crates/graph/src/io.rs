//! Edge-list I/O in the SNAP/KONECT plain-text convention.
//!
//! Format: one `u v` pair per line, whitespace separated; lines starting
//! with `#` or `%` are comments; duplicate edges, reversed duplicates and
//! self-loops are tolerated (and removed on build), since real snapshots
//! contain all three.

use crate::builder::GraphBuilder;
use crate::csr::Graph;
use crate::error::GraphError;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Streams the raw `u v` pairs of an edge list to a callback, one line
/// at a time, without materializing anything: the shared front half of
/// every reader in this module, and what lets the two-pass compact file
/// loader convert edge lists larger than RAM.
fn for_each_edge<R: Read>(
    reader: R,
    mut f: impl FnMut(u64, u64) -> Result<(), GraphError>,
) -> Result<(), GraphError> {
    let mut r = BufReader::new(reader);
    let mut line = String::new();
    let mut lineno = 0usize;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Ok(());
        }
        lineno += 1;
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_whitespace();
        let parse = |tok: Option<&str>, lineno: usize| -> Result<u64, GraphError> {
            tok.ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: "expected two node ids".into(),
            })?
            .parse::<u64>()
            .map_err(|e| GraphError::Parse { line: lineno, message: e.to_string() })
        };
        let u = parse(it.next(), lineno)?;
        let v = parse(it.next(), lineno)?;
        f(u, v)?;
    }
}

/// Parses the raw `u v` pairs of an edge list into a vector: the
/// buffered front half of [`read_edge_list`] and
/// [`read_edge_list_compact`]. Returns the edges plus the maximum node
/// id seen (0 for an empty list).
fn parse_edges<R: Read>(reader: R) -> Result<(Vec<(u64, u64)>, u64), GraphError> {
    let mut edges: Vec<(u64, u64)> = Vec::new();
    let mut max_id: u64 = 0;
    for_each_edge(reader, |u, v| {
        max_id = max_id.max(u).max(v);
        edges.push((u, v));
        Ok(())
    })?;
    Ok((edges, max_id))
}

/// Reads an edge list from any reader. Node ids must be non-negative
/// integers; the node count is `max id + 1`.
///
/// **Default id semantics:** ids are taken as dense — the graph is
/// allocated over `0..=max id`, and ids that never appear become
/// isolated nodes. That matches SNAP-style files with (near-)contiguous
/// ids, but is a footgun for KONECT-style files with sparse ids: one
/// stray id like 10⁹ allocates a billion-node graph. For such files use
/// [`read_edge_list_compact`], which remaps ids to `0..n` and returns
/// the remap table.
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let (edges, max_id) = parse_edges(reader)?;
    let n = if edges.is_empty() { 0 } else { max_id as usize + 1 };
    if n > u32::MAX as usize {
        return Err(GraphError::NodeOutOfRange { node: max_id, num_nodes: u32::MAX as usize });
    }
    let mut b = GraphBuilder::with_edge_capacity(n, edges.len());
    for (u, v) in edges {
        b.add_edge(u as u32, v as u32)?;
    }
    Ok(b.build())
}

/// Reads an edge list from a file path.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<Graph, GraphError> {
    read_edge_list(std::fs::File::open(path)?)
}

/// The id remap produced by [`read_edge_list_compact`]: compact id `c`
/// (a node of the returned graph) corresponds to original file id
/// `originals()[c]`. Compact ids follow the sorted order of the original
/// ids, so the mapping is deterministic for a given edge set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeIdMap {
    originals: Vec<u64>,
}

impl NodeIdMap {
    /// Number of distinct original ids (the compact graph's node count).
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// True when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// Original file id of compact node `compact`.
    pub fn original(&self, compact: u32) -> u64 {
        self.originals[compact as usize]
    }

    /// Compact id of an original file id, or `None` if it never appeared.
    pub fn compact(&self, original: u64) -> Option<u32> {
        self.originals.binary_search(&original).ok().map(|i| i as u32)
    }

    /// All original ids, indexed by compact id (sorted ascending).
    pub fn originals(&self) -> &[u64] {
        &self.originals
    }
}

/// Reads an edge list with **id compaction**: the distinct original ids
/// are sorted, deduplicated, and remapped to `0..n`, so memory scales
/// with the number of ids actually present rather than with their
/// magnitude. This is the right entry point for KONECT-style snapshots
/// whose ids are sparse (e.g. a single id near 10⁹ — which would make
/// [`read_edge_list`] allocate a billion-node graph). Returns the graph
/// together with the [`NodeIdMap`] for translating results back to
/// original ids.
pub fn read_edge_list_compact<R: Read>(reader: R) -> Result<(Graph, NodeIdMap), GraphError> {
    let (edges, _) = parse_edges(reader)?;
    let mut ids: Vec<u64> = Vec::with_capacity(edges.len() * 2);
    for &(u, v) in &edges {
        ids.push(u);
        ids.push(v);
    }
    ids.sort_unstable();
    ids.dedup();
    if ids.len() > u32::MAX as usize {
        return Err(GraphError::NodeOutOfRange {
            node: ids.last().copied().unwrap_or(0),
            num_nodes: u32::MAX as usize,
        });
    }
    let map = NodeIdMap { originals: ids };
    // Every endpoint is in the sorted id set, so its rank there is its
    // compact id.
    let compact = |id: u64| map.originals.partition_point(|&o| o < id) as crate::NodeId;
    let mut b = GraphBuilder::with_edge_capacity(map.len(), edges.len());
    for (u, v) in edges {
        b.add_edge(compact(u), compact(v))?;
    }
    Ok((b.build(), map))
}

/// Reads an edge list file with id compaction — **streaming**, in two
/// passes, so peak memory is the finished CSR plus an id→count table
/// (O(distinct ids)), never a buffered copy of the edge list. This is
/// what lets `gx-snapshot` convert KONECT dumps larger than RAM; the
/// reader-based [`read_edge_list_compact`] necessarily buffers (a
/// generic `Read` cannot be rewound) and should be reserved for
/// in-memory or pipe inputs.
///
/// Pass 1 counts each id's non-self-loop incidences (duplicates
/// included); the sorted distinct ids become the [`NodeIdMap`] and the
/// counts become CSR offsets. Pass 2 re-reads the file and drops every
/// edge directly into its final slot; per-node sort + dedup then
/// compacts the lists in place. The result is bit-identical to the
/// buffered path (same sort-dedup-drop-loops semantics as
/// [`GraphBuilder`]). If the file changes between the passes the
/// mismatch is detected and reported as [`GraphError::Parse`] rather
/// than producing a silently wrong graph.
pub fn read_edge_list_compact_file(
    path: impl AsRef<Path>,
) -> Result<(Graph, NodeIdMap), GraphError> {
    let path = path.as_ref();
    let drift = || GraphError::Parse {
        line: 0,
        message: "edge list changed between the two streaming passes".into(),
    };

    // Pass 1: id -> incidence count (self-loops register the id but add
    // no adjacency slot, matching the builder's drop-loops semantics).
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for_each_edge(std::fs::File::open(path)?, |u, v| {
        let inc = u64::from(u != v);
        *counts.entry(u).or_insert(0) += inc;
        *counts.entry(v).or_insert(0) += inc;
        Ok(())
    })?;
    let mut originals: Vec<u64> = counts.keys().copied().collect();
    originals.sort_unstable();
    if originals.len() > u32::MAX as usize {
        return Err(GraphError::NodeOutOfRange {
            node: originals.last().copied().unwrap_or(0),
            num_nodes: u32::MAX as usize,
        });
    }
    let n = originals.len();
    let mut offsets = vec![0usize; n + 1];
    for (c, &id) in originals.iter().enumerate() {
        offsets[c + 1] = offsets[c] + counts[&id] as usize;
    }
    drop(counts);
    let map = NodeIdMap { originals };
    let mut adjacency = vec![0 as crate::NodeId; offsets[n]];
    // Same pre-fill hugepage advice as the builder: the fill below is
    // random-access across the whole array.
    crate::csr::advise_hugepages(offsets.as_ptr().cast(), offsets.len() * 8);
    crate::csr::advise_hugepages(adjacency.as_ptr().cast(), adjacency.len() * 4);

    // Pass 2: drop each endpoint into its node's cursor slot.
    let mut cursor: Vec<usize> = offsets[..n].to_vec();
    for_each_edge(std::fs::File::open(path)?, |u, v| {
        if u == v {
            return Ok(());
        }
        let (cu, cv) = match (map.compact(u), map.compact(v)) {
            (Some(cu), Some(cv)) => (cu, cv),
            _ => return Err(drift()),
        };
        let (iu, iv) = (cu as usize, cv as usize);
        if cursor[iu] >= offsets[iu + 1] || cursor[iv] >= offsets[iv + 1] {
            return Err(drift());
        }
        adjacency[cursor[iu]] = cv;
        cursor[iu] += 1;
        adjacency[cursor[iv]] = cu;
        cursor[iv] += 1;
        Ok(())
    })?;
    if (0..n).any(|c| cursor[c] != offsets[c + 1]) {
        return Err(drift());
    }
    drop(cursor);

    // Per-node sort + dedup, compacting leftwards in place (the write
    // cursor never passes the read cursor).
    let mut write = 0usize;
    let mut start = 0usize;
    for c in 0..n {
        let end = offsets[c + 1];
        adjacency[start..end].sort_unstable();
        let node_start = write;
        for i in start..end {
            let w = adjacency[i];
            if write == node_start || adjacency[write - 1] != w {
                adjacency[write] = w;
                write += 1;
            }
        }
        start = end;
        offsets[c + 1] = write;
    }
    adjacency.truncate(write);
    Ok((Graph::from_csr_parts(offsets, adjacency), map))
}

/// Writes each edge once as `u v` with `u < v`, preceded by a summary
/// comment header.
pub fn write_edge_list<W: Write>(g: &Graph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {} edges {}", g.num_nodes(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Writes an edge list to a file path.
pub fn write_edge_list_file(g: &Graph, path: impl AsRef<Path>) -> Result<(), GraphError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn roundtrip_preserves_graph() {
        let g = classic::petersen();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn comments_blank_lines_and_duplicates_are_tolerated() {
        let text = "# comment\n% another\n\n0 1\n1 0\n1 2\n2 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_lines_report_position() {
        let err = read_edge_list("0 1\nnot numbers\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
    }

    #[test]
    fn compact_remaps_sparse_konect_style_ids() {
        // One KONECT-style id near 10⁹: the dense reader would allocate a
        // billion-node graph; the compact reader allocates three nodes.
        let text = "# sparse ids\n1000000000 7\n7 42\n";
        let (g, map) = read_edge_list_compact(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(map.len(), 3);
        assert_eq!(map.originals(), &[7, 42, 1_000_000_000]);
        // compact ids follow sorted original order
        assert_eq!(map.compact(7), Some(0));
        assert_eq!(map.compact(42), Some(1));
        assert_eq!(map.compact(1_000_000_000), Some(2));
        assert_eq!(map.compact(8), None);
        for c in 0..3u32 {
            assert_eq!(map.compact(map.original(c)), Some(c));
        }
        // edges survive the remap: 10⁹–7 and 7–42
        assert!(g.has_edge(map.compact(1_000_000_000).unwrap(), map.compact(7).unwrap()));
        assert!(g.has_edge(map.compact(7).unwrap(), map.compact(42).unwrap()));
        assert!(!g.has_edge(map.compact(1_000_000_000).unwrap(), map.compact(42).unwrap()));
    }

    #[test]
    fn compact_on_contiguous_ids_is_the_identity_remap() {
        let g = classic::petersen();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let (back, map) = read_edge_list_compact(&buf[..]).unwrap();
        assert_eq!(g, back);
        assert_eq!(map.originals(), (0..10u64).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn compact_tolerates_comments_duplicates_and_empty_input() {
        let (g, map) = read_edge_list_compact("".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert!(map.is_empty());
        let text = "# c\n% c\n\n5 9\n9 5\n9 9\n";
        let (g, map) = read_edge_list_compact(text.as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1); // dup + self-loop dropped at build
        assert_eq!(map.originals(), &[5, 9]);
    }

    /// Ids the generated edge lists draw from: dense, sparse, and both
    /// ends of the `u32`/`u64` ranges.
    const POOL: [u64; 12] = [
        0,
        1,
        2,
        7,
        42,
        999,
        1_000_000_000,
        1_000_000_007,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        u64::MAX - 1,
        u64::MAX,
    ];

    /// Lines no loader may accept.
    const MALFORMED: [&str; 5] = ["x 1", "7", "-1 3", "18446744073709551616 0", "1 2.5"];

    /// Renders generated `(kind, a, b)` triples as edge-list text: mostly
    /// edges, plus duplicates in both orders, self-loops, comments, blank
    /// lines and (rarely) a malformed line. Also returns the sorted ids
    /// named on edge lines, self-loop-only ones included.
    fn edge_list_text(lines: &[(u32, usize, usize)]) -> (String, Vec<u64>) {
        let mut text = String::new();
        let mut ids = Vec::new();
        for &(kind, a, b) in lines {
            let (u, v) = (POOL[a], POOL[b]);
            let sep = ["\t", " ", "  "][a % 3];
            let line = match kind {
                0 => MALFORMED[a % MALFORMED.len()].to_string(),
                1..=3 => format!("{} comment {u}", ["#", "%"][b % 2]),
                4..=5 => String::new(),
                6..=9 => {
                    ids.push(u);
                    format!("{u}{sep}{u}")
                }
                10..=17 => format!("{u}{sep}{v}\n{v} {u}"),
                18..=21 => format!("{u} {v}\n {u}{sep}{v} "),
                _ => format!("{u}{sep}{v}"),
            };
            if kind >= 10 {
                ids.extend([u, v]);
            }
            text.push_str(&line);
            text.push('\n');
        }
        ids.sort_unstable();
        ids.dedup();
        (text, ids)
    }

    proptest::proptest! {
        /// The streaming two-pass file loader and the buffered reader
        /// agree on every edge list: the same graph and id map, or an
        /// error from both.
        #[test]
        fn streaming_file_loader_matches_buffered_reader_exactly(
            lines in proptest::collection::vec((0u32..64, 0usize..POOL.len(), 0usize..POOL.len()), 0..40),
        ) {
            let (text, ids) = edge_list_text(&lines);
            let path = std::env::temp_dir()
                .join(format!("gx_graph_io_stream_{}.txt", std::process::id()));
            std::fs::write(&path, &text).unwrap();
            let streamed = read_edge_list_compact_file(&path);
            std::fs::remove_file(&path).ok();
            match (read_edge_list_compact(text.as_bytes()), streamed) {
                (Ok(buffered), Ok(streamed)) => {
                    proptest::prop_assert_eq!(buffered.1.originals(), &ids[..], "{text}");
                    proptest::prop_assert_eq!(streamed, buffered, "{text}");
                }
                (Err(_), Err(_)) => {}
                (buffered, streamed) => {
                    panic!("loaders disagree on {text:?}: buffered {buffered:?}, streamed {streamed:?}")
                }
            }
        }
    }

    #[test]
    fn streaming_loader_empty_file() {
        let dir = std::env::temp_dir().join("gx_graph_io_stream_empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.txt");
        std::fs::write(&path, "# only comments\n\n").unwrap();
        let (g, map) = read_edge_list_compact_file(&path).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert!(map.is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compact_file_roundtrip() {
        let dir = std::env::temp_dir().join("gx_graph_io_compact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sparse.txt");
        std::fs::write(&path, "100 200\n200 300000\n").unwrap();
        let (g, map) = read_edge_list_compact_file(&path).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(map.originals(), &[100, 200, 300_000]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let g = classic::grid(3, 3);
        let dir = std::env::temp_dir().join("gx_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("grid.txt");
        write_edge_list_file(&g, &path).unwrap();
        let back = read_edge_list_file(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }
}

//! Adjacency digests: one 64-bit FNV-1a hash over every vertex's sorted
//! adjacency, so a stored graph can be compared with the edge list it was
//! built from regardless of storage order or declustering.

use graphdb::GraphDbExt;
use mssg_core::cluster::SharedBackend;
use mssg_types::{Edge, Result};
use std::collections::BTreeMap;

/// Sorted adjacency per vertex; vertices without entries are absent.
pub type Adjacency = BTreeMap<u64, Vec<u64>>;

/// The adjacency an ingestion of `edges` must store: each undirected
/// edge contributes one directed entry at either end (a self-loop
/// contributes two).
pub fn expected_adjacency<'a>(edges: impl IntoIterator<Item = &'a Edge>) -> Adjacency {
    let mut adj = Adjacency::new();
    for e in edges {
        adj.entry(e.src.raw()).or_default().push(e.dst.raw());
        adj.entry(e.dst.raw()).or_default().push(e.src.raw());
    }
    for list in adj.values_mut() {
        list.sort_unstable();
    }
    adj
}

/// The adjacency stored across `backends`, read back through
/// `GraphDb::local_vertices` and `neighbors`. Tagged ids (checkpoint
/// metadata keys) are not vertices and are skipped.
pub fn stored_adjacency(backends: &[SharedBackend]) -> Result<Adjacency> {
    let mut adj = Adjacency::new();
    for backend in backends {
        let mut db = backend.lock();
        for v in db.local_vertices()? {
            if !v.is_vertex() {
                continue;
            }
            let neighbours = db.neighbors(v)?;
            if !neighbours.is_empty() {
                adj.entry(v.raw())
                    .or_default()
                    .extend(neighbours.iter().map(|n| n.raw()));
            }
        }
    }
    for list in adj.values_mut() {
        list.sort_unstable();
    }
    Ok(adj)
}

/// FNV-1a over `(vertex, degree, neighbours…)` for every vertex in
/// ascending order.
pub fn digest(adj: &Adjacency) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (v, list) in adj {
        mix(*v);
        mix(list.len() as u64);
        for n in list {
            mix(*n);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_edge_order_but_not_content() {
        let a = [Edge::of(1, 2), Edge::of(2, 3), Edge::of(3, 3)];
        let b = [Edge::of(3, 3), Edge::of(3, 2), Edge::of(2, 1)];
        let c = [Edge::of(1, 2), Edge::of(2, 3)];
        let da = digest(&expected_adjacency(&a));
        assert_eq!(da, digest(&expected_adjacency(&b)));
        assert_ne!(da, digest(&expected_adjacency(&c)));
        assert_eq!(expected_adjacency(&a)[&3], vec![2, 3, 3]);
    }
}

//! Workload inputs, all derived from the `--seed` argument: the same
//! seed gives the same graph, batches and query lists.

use graphgen::rng::Xoshiro256;
use graphgen::GraphPreset;
use mssg_serve::Query;
use mssg_types::{Edge, Gid};

/// Stream-independent sub-seeds, so the graph and each query list can
/// change without shifting one another.
const GRAPH_STREAM: u64 = 0x6772_6170_6800;
const QUERY_STREAM: u64 = 0x7175_6572_7900;

/// The PubMed-S-like scale-free edge stream at `1/scale_div` of the
/// paper's size.
pub fn pubmed_edges(seed: u64, scale_div: u64) -> Vec<Edge> {
    GraphPreset::PubMedS
        .workload(scale_div, seed ^ GRAPH_STREAM)
        .collect_edges()
}

/// Vertex count of the PubMed-S-like graph at `1/scale_div`.
pub fn pubmed_vertices(scale_div: u64) -> u64 {
    GraphPreset::PubMedS.workload(scale_div, 0).vertices()
}

/// A path `0 – 1 – … – vertices`.
pub fn chain_edges(vertices: u64) -> Vec<Edge> {
    (0..vertices).map(|i| Edge::of(i, i + 1)).collect()
}

/// How many queries of each kind a scale-free list holds.
#[derive(Clone, Copy, Debug)]
pub struct QueryMix {
    /// BFS from a uniform source to a destination [`BFS_HOPS`] away.
    pub bfs: usize,
    /// 2-hop neighbourhood of a Zipf source.
    pub khop: usize,
    /// Degree of a Zipf source.
    pub degree: usize,
}

/// Hop distance of every BFS destination. A BFS costs by the rounds it
/// runs, so one distance keeps the cost of a list from swinging with
/// the destinations a seed draws. One distance, and BFS for most of a
/// list, also make the requests that share the cores cost about the
/// same (a 4-hop search takes ~120 ms alone, a 3-hop one 5-45 ms): with
/// 55% of the BFS at 3 hops a latency depended on which queries it ran
/// beside, and the p50 of a run moved by a fifth from seed to seed.
pub const BFS_HOPS: u32 = 4;

/// Undirected adjacency of a generated graph in compressed rows, to
/// draw BFS destinations by hop distance.
pub struct Graph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
}

impl Graph {
    /// The graph of `edges` over vertices `0..vertices`.
    pub fn new(vertices: u64, edges: &[Edge]) -> Graph {
        let n = vertices as usize;
        let mut offsets = vec![0usize; n + 1];
        for e in edges {
            offsets[e.src.raw() as usize + 1] += 1;
            offsets[e.dst.raw() as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut targets = vec![0u32; offsets[n]];
        for e in edges {
            let (a, b) = (e.src.raw() as usize, e.dst.raw() as usize);
            targets[fill[a]] = b as u32;
            fill[a] += 1;
            targets[fill[b]] = a as u32;
            fill[b] += 1;
        }
        Graph { offsets, targets }
    }

    /// Vertex count.
    pub fn vertices(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// The vertices exactly `d` hops from `source`, for `d` in `1..=hops`.
    fn rings(&self, source: u64, hops: u32) -> Vec<Vec<u64>> {
        let mut seen = vec![false; self.offsets.len() - 1];
        seen[source as usize] = true;
        let mut rings = vec![vec![source]];
        for _ in 0..hops {
            let mut next = Vec::new();
            for &v in rings.last().expect("starts with the source") {
                for &u in &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]] {
                    if !std::mem::replace(&mut seen[u as usize], true) {
                        next.push(u64::from(u));
                    }
                }
            }
            rings.push(next);
        }
        rings.remove(0);
        rings
    }
}

/// Zipf(1) sampler over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / rank as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Xoshiro256) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A scale-free query list over `graph`: exactly `mix.bfs` BFS,
/// `mix.khop` 2-hop and `mix.degree` degree queries in a seeded order.
/// 2-hop and degree sources follow a Zipf distribution over a seeded
/// permutation of the vertices, so popular sources repeat (and are
/// answered from the result cache) without always being the
/// generator's hubs. BFS sources are uniform: a BFS repeats only with
/// its destination, so Zipf sources would buy no cache hits and would
/// tie the cost of a whole list to the few vertices a seed makes
/// popular. A BFS destination is uniform among the vertices
/// [`BFS_HOPS`] away from its source, or in the farthest nearer ring when
/// the source reaches no vertex that far (a source with no edges gets a
/// uniform, unreachable destination).
pub fn scalefree_queries(seed: u64, graph: &Graph, mix: QueryMix, stream: u64) -> Vec<Query> {
    let vertices = graph.vertices();
    let mut rng = Xoshiro256::seeded(seed ^ QUERY_STREAM ^ stream);
    let mut perm: Vec<u64> = (0..vertices).collect();
    rng.shuffle(&mut perm);
    let zipf = Zipf::new(perm.len());
    // Kind 0 is a 2-hop query, 1 a degree, 2 a BFS.
    let mut kinds: Vec<u32> = Vec::with_capacity(mix.bfs + mix.khop + mix.degree);
    kinds.extend(std::iter::repeat_n(2, mix.bfs));
    kinds.extend(std::iter::repeat_n(0, mix.khop));
    kinds.extend(std::iter::repeat_n(1, mix.degree));
    rng.shuffle(&mut kinds);
    kinds
        .into_iter()
        .map(|kind| match kind {
            0 => Query::KHop {
                source: Gid::new(perm[zipf.sample(&mut rng)]),
                k: 2,
            },
            1 => Query::Degree {
                vertex: Gid::new(perm[zipf.sample(&mut rng)]),
            },
            _ => {
                let source = rng.next_below(vertices);
                let rings = graph.rings(source, BFS_HOPS);
                let dest = match rings.iter().rev().find(|r| !r.is_empty()) {
                    Some(ring) => ring[rng.next_below(ring.len() as u64) as usize],
                    None => rng.next_below(vertices),
                };
                Query::Bfs {
                    source: Gid::new(source),
                    dest: Gid::new(dest),
                }
            }
        })
        .collect()
}

/// `count` distinct `hops`-hop BFS queries along a path of `vertices`
/// edges, sources drawn without repeats.
pub fn chain_queries(seed: u64, vertices: u64, hops: u64, count: usize) -> Vec<Query> {
    let mut rng = Xoshiro256::seeded(seed ^ QUERY_STREAM);
    let mut sources: Vec<u64> = (0..=vertices - hops).collect();
    rng.shuffle(&mut sources);
    assert!(
        count <= sources.len(),
        "chain too short for {count} distinct queries"
    );
    sources[..count]
        .iter()
        .map(|&s| Query::Bfs {
            source: Gid::new(s),
            dest: Gid::new(s + hops),
        })
        .collect()
}

/// `count` uniform vertices for degree read-back after a bulk load.
pub fn uniform_vertices(seed: u64, vertices: u64, count: usize) -> Vec<Gid> {
    let mut rng = Xoshiro256::seeded(seed ^ QUERY_STREAM ^ 0x5eed);
    (0..count)
        .map(|_| Gid::new(rng.next_below(vertices)))
        .collect()
}

/// Splits `edges` into a base (the first `1 − 1/4` of the stream) and
/// `batches` equal-sized update batches covering the rest.
pub fn split_updates(edges: &[Edge], batches: usize) -> (Vec<Edge>, Vec<Vec<Edge>>) {
    let base_len = edges.len() - edges.len() / 4;
    let tail = &edges[base_len..];
    let per = tail.len().div_ceil(batches);
    (
        edges[..base_len].to_vec(),
        tail.chunks(per).map(<[Edge]>::to_vec).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let mix = QueryMix {
            bfs: 5,
            khop: 5,
            degree: 5,
        };
        let edges = pubmed_edges(1, 4096);
        assert_eq!(edges, pubmed_edges(1, 4096));
        assert_ne!(edges, pubmed_edges(2, 4096));
        let graph = Graph::new(pubmed_vertices(4096), &edges);
        let a = scalefree_queries(1, &graph, mix, 0);
        assert_eq!(a, scalefree_queries(1, &graph, mix, 0));
        assert_ne!(a, scalefree_queries(2, &graph, mix, 0));
        assert_ne!(a, scalefree_queries(1, &graph, mix, 1));
        assert_eq!(a.len(), 15);
        assert_eq!(
            a.iter().filter(|q| matches!(q, Query::KHop { .. })).count(),
            5
        );
    }

    #[test]
    fn bfs_destinations_lie_at_their_assigned_distance() {
        // A path: the vertex `d` hops from `s` is `s ± d`.
        let graph = Graph::new(101, &chain_edges(100));
        assert_eq!(graph.rings(50, 2), vec![vec![49, 51], vec![48, 52]]);
        let mix = QueryMix {
            bfs: 40,
            khop: 0,
            degree: 0,
        };
        let mut hops: Vec<u64> = scalefree_queries(5, &graph, mix, 0)
            .into_iter()
            .map(|q| match q {
                Query::Bfs { source, dest } => source.raw().abs_diff(dest.raw()),
                _ => panic!("only BFS asked for"),
            })
            .collect();
        hops.sort_unstable();
        hops.dedup();
        // 4 hops, and nearer rings only for path ends.
        assert!(hops.iter().all(|&h| (1..=4).contains(&h)), "{hops:?}");
        assert!(hops.contains(&4));
    }

    #[test]
    fn chain_queries_are_distinct_and_in_range() {
        let q = chain_queries(3, 300, 60, 100);
        let mut sorted = q.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        for query in q {
            let Query::Bfs { source, dest } = query else {
                panic!("chain lists hold BFS only")
            };
            assert_eq!(dest.raw() - source.raw(), 60);
            assert!(dest.raw() <= 300);
        }
    }

    #[test]
    fn updates_cover_the_stream() {
        let edges = chain_edges(1003);
        let (base, batches) = split_updates(&edges, 8);
        assert_eq!(batches.len(), 8);
        let total: usize = base.len() + batches.iter().map(Vec::len).sum::<usize>();
        assert_eq!(total, edges.len());
        assert_eq!(base.len(), 753);
    }
}

//! Seeded synthetic analogs of the paper's evaluation datasets (Table 5).
//!
//! The paper evaluates on ten SNAP/KONECT crawls (BrightKite … Sinaweibo,
//! up to 265M edges). Those are neither redistributable here nor
//! laptop-sized, so every experiment in this workspace runs on a seeded
//! synthetic analog chosen to match the *axes that drive estimator
//! behaviour* (DESIGN.md §3): heavy-tailed degrees, the dataset's relative
//! triangle/clique richness, and the small-vs-large split (the paper
//! computes 5-node ground truth only for its four smallest graphs; so do
//! we).
//!
//! Analog mapping:
//!
//! | analog          | paper dataset | generator | why |
//! |-----------------|--------------|-----------|-----|
//! | `brightkite-sim`| BrightKite   | Holme–Kim m=4, p=0.45 | moderate clustering, heavy tail |
//! | `epinion-sim`   | Epinion      | Holme–Kim m=5, p=0.25 | lower clustering |
//! | `slashdot-sim`  | Slashdot     | Barabási–Albert m=5   | heavy tail, low clustering |
//! | `facebook-sim`  | Facebook     | Holme–Kim m=6, p=0.60 | highest triangle concentration |
//! | `gowalla-sim`   | Gowalla      | Barabási–Albert m=5   | low clustering, larger |
//! | `wikipedia-sim` | Wikipedia    | Holme–Kim m=10, p=0.02 | near-zero clustering, dense |
//! | `pokec-sim`     | Pokec        | Holme–Kim m=8, p=0.12 | mild clustering, large |
//! | `flickr-sim`    | Flickr       | Holme–Kim m=6, p=0.55 | high clustering, large |
//! | `twitter-sim`   | Twitter      | Barabási–Albert m=8   | heavy tail, low clustering |
//! | `sinaweibo-sim` | Sinaweibo    | Holme–Kim m=5, p=0.005 | lowest clustering |
//!
//! Every graph is the largest connected component of its generator output
//! (the paper does the same, §6.1), built deterministically from a fixed
//! seed and cached for the process lifetime, as is its ground truth.

use gx_exact::{exact_counts, GraphletCounts};
use gx_graph::connectivity::largest_connected_component;
use gx_graph::generators::{barabasi_albert, holme_kim};
use gx_graph::Graph;
use rand::SeedableRng;
use std::sync::OnceLock;

pub mod load;

pub use load::{LoadedDataset, MappedDataset};

/// A named synthetic dataset with lazily built graph and ground truth.
pub struct Dataset {
    /// Registry name (`*-sim`).
    pub name: &'static str,
    /// The paper dataset this stands in for.
    pub paper_analog: &'static str,
    /// Whether this belongs to the "small" group with 5-node ground truth
    /// (the paper's BrightKite/Epinion/Slashdot/Facebook group).
    pub small: bool,
    seed: u64,
    build: fn(u64) -> Graph,
    graph: OnceLock<Graph>,
    truth: [OnceLock<GraphletCounts>; 3],
}

impl Dataset {
    /// The dataset graph (LCC, deterministic), built on first use.
    pub fn graph(&self) -> &Graph {
        self.graph.get_or_init(|| {
            let raw = (self.build)(self.seed);
            largest_connected_component(&raw).0
        })
    }

    /// Exact graphlet counts for `k ∈ {3, 4, 5}`, cached. 5-node ground
    /// truth is only available for small datasets (panics otherwise),
    /// mirroring the paper's Table 5.
    ///
    /// 5-node counts (the only expensive ones — full ESU enumeration) are
    /// additionally cached on disk under `target/gx-truth/`, keyed by the
    /// dataset's name and exact size, so repeated bench invocations do
    /// not re-enumerate.
    pub fn ground_truth(&self, k: usize) -> &GraphletCounts {
        assert!((3..=5).contains(&k), "ground truth supports k = 3..=5");
        if k == 5 {
            assert!(
                self.small,
                "{}: 5-node ground truth is only computed for small datasets \
                 (the paper does the same — §6.1)",
                self.name
            );
        }
        self.truth[k - 3].get_or_init(|| {
            if k == 5 {
                if let Some(cached) = self.load_cached(k) {
                    return cached;
                }
            }
            let counts = exact_counts(self.graph(), k);
            if k == 5 {
                self.store_cached(&counts);
            }
            counts
        })
    }

    fn cache_path(&self, k: usize) -> std::path::PathBuf {
        // Anchor at the workspace target dir so tests and benches (which
        // run with different CWDs) share one cache.
        let dir = std::env::var("GX_TRUTH_CACHE").unwrap_or_else(|_| {
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/gx-truth").to_string()
        });
        let g = self.graph();
        // Fingerprint the edge set, not just (n, m): generator-stream
        // changes can produce a different graph with identical counts,
        // and a colliding key would silently serve stale ground truth.
        let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
        for (u, v) in g.edges() {
            for word in [u, v] {
                fp ^= word as u64;
                fp = fp.wrapping_mul(0x100_0000_01b3);
            }
        }
        std::path::PathBuf::from(dir).join(format!(
            "{}-k{}-n{}-m{}-h{fp:016x}.txt",
            self.name,
            k,
            g.num_nodes(),
            g.num_edges()
        ))
    }

    fn load_cached(&self, k: usize) -> Option<GraphletCounts> {
        let text = std::fs::read_to_string(self.cache_path(k)).ok()?;
        let counts: Vec<u64> =
            text.split_whitespace().map(|t| t.parse().ok()).collect::<Option<_>>()?;
        if counts.len() != gx_graphlets::num_graphlets(k) {
            return None;
        }
        Some(GraphletCounts { k, counts })
    }

    fn store_cached(&self, counts: &GraphletCounts) {
        let path = self.cache_path(counts.k);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let text: Vec<String> = counts.counts.iter().map(|c| c.to_string()).collect();
        let _ = std::fs::write(path, text.join(" "));
    }

    /// Exact concentration vector for `k`.
    pub fn exact_concentrations(&self, k: usize) -> Vec<f64> {
        self.ground_truth(k).concentrations()
    }
}

macro_rules! dataset {
    ($name:literal, $analog:literal, $small:expr, $seed:expr, $build:expr) => {
        Dataset {
            name: $name,
            paper_analog: $analog,
            small: $small,
            seed: $seed,
            build: $build,
            graph: OnceLock::new(),
            truth: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
        }
    };
}

fn rng(seed: u64) -> rand_pcg::Pcg64 {
    rand_pcg::Pcg64::seed_from_u64(seed)
}

/// The ten analogs, in the paper's Table 5 order.
pub fn registry() -> &'static [Dataset] {
    static REGISTRY: OnceLock<Vec<Dataset>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        vec![
            dataset!("brightkite-sim", "BrightKite", true, 0xB017, |s| {
                holme_kim(1000, 4, 0.45, &mut rng(s))
            }),
            dataset!("epinion-sim", "Epinion", true, 0xE919, |s| {
                holme_kim(1500, 4, 0.25, &mut rng(s))
            }),
            dataset!("slashdot-sim", "Slashdot", true, 0x51A5, |s| {
                barabasi_albert(1600, 4, &mut rng(s))
            }),
            dataset!("facebook-sim", "Facebook", true, 0xFACE, |s| {
                holme_kim(1000, 5, 0.60, &mut rng(s))
            }),
            dataset!("gowalla-sim", "Gowalla", false, 0x90A1, |s| {
                barabasi_albert(20_000, 5, &mut rng(s))
            }),
            dataset!("wikipedia-sim", "Wikipedia", false, 0x4181, |s| {
                holme_kim(25_000, 10, 0.02, &mut rng(s))
            }),
            dataset!("pokec-sim", "Pokec", false, 0x90EC, |s| {
                holme_kim(30_000, 8, 0.12, &mut rng(s))
            }),
            dataset!("flickr-sim", "Flickr", false, 0xF11C, |s| {
                holme_kim(25_000, 6, 0.55, &mut rng(s))
            }),
            dataset!("twitter-sim", "Twitter", false, 0x7417, |s| {
                barabasi_albert(40_000, 8, &mut rng(s))
            }),
            dataset!("sinaweibo-sim", "Sinaweibo", false, 0x517A, |s| {
                holme_kim(50_000, 5, 0.005, &mut rng(s))
            }),
        ]
    })
}

/// Looks a dataset up by name.
pub fn dataset(name: &str) -> &'static Dataset {
    registry()
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown dataset {name:?}; see gx_datasets::registry()"))
}

/// The four small datasets (5-node ground truth available).
pub fn small_datasets() -> impl Iterator<Item = &'static Dataset> {
    registry().iter().filter(|d| d.small)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_ten_table5_entries() {
        assert_eq!(registry().len(), 10);
        assert_eq!(small_datasets().count(), 4);
        assert_eq!(dataset("facebook-sim").paper_analog, "Facebook");
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn unknown_name_panics() {
        let _ = dataset("nope");
    }

    #[test]
    fn graphs_are_connected_and_cached() {
        let d = dataset("brightkite-sim");
        let g1 = d.graph() as *const Graph;
        let g2 = d.graph() as *const Graph;
        assert_eq!(g1, g2, "cached");
        assert!(gx_graph::connectivity::is_connected(d.graph()));
        assert!(d.graph().num_nodes() >= 1000);
    }

    #[test]
    fn small_datasets_are_deterministic() {
        // re-running the generator by hand reproduces the cached graph
        let d = dataset("slashdot-sim");
        let raw = barabasi_albert(1600, 4, &mut rng(0x51A5));
        let (lcc, _) = largest_connected_component(&raw);
        assert_eq!(d.graph(), &lcc);
    }

    #[test]
    fn triangle_concentration_ordering_matches_table5() {
        // Table 5's qualitative ordering within the small group:
        // Facebook (0.0546) > BrightKite (0.0398) > Epinion (0.0229) >
        // Slashdot (0.0082).
        let c32 = |name: &str| dataset(name).exact_concentrations(3)[1];
        let fb = c32("facebook-sim");
        let bk = c32("brightkite-sim");
        let ep = c32("epinion-sim");
        let sd = c32("slashdot-sim");
        assert!(fb > bk, "facebook {fb} vs brightkite {bk}");
        assert!(bk > ep, "brightkite {bk} vs epinion {ep}");
        assert!(ep > sd, "epinion {ep} vs slashdot {sd}");
    }

    #[test]
    fn five_node_ground_truth_for_smalls() {
        let d = dataset("brightkite-sim");
        let c5 = d.ground_truth(5);
        assert_eq!(c5.k, 5);
        assert!(c5.total() > 0);
        // cliques exist but are rare (Table 5's c⁵₂₁ column is ~1e-5)
        let conc = c5.concentrations();
        assert!(conc[20] > 0.0 && conc[20] < 0.05, "c5_21 = {}", conc[20]);
    }

    #[test]
    #[should_panic(expected = "only computed for small datasets")]
    fn five_node_ground_truth_refused_for_larges() {
        let _ = dataset("twitter-sim").ground_truth(5);
    }

    #[test]
    #[ignore = "builds every large dataset (~seconds in release); run with --ignored"]
    fn large_datasets_build_and_order_by_clustering() {
        let c32 = |name: &str| dataset(name).exact_concentrations(3)[1];
        let flickr = c32("flickr-sim");
        let twitter = c32("twitter-sim");
        let weibo = c32("sinaweibo-sim");
        assert!(flickr > twitter, "flickr {flickr} vs twitter {twitter}");
        assert!(twitter > weibo, "twitter {twitter} vs sinaweibo {weibo}");
    }
}

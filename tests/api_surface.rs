//! Public-API surface check: re-exports and exercises every documented
//! facade item, so an accidental removal or rename in any crate breaks
//! tier-1 instead of rotting silently until a consumer hits it.
//!
//! Keep this in sync with `src/lib.rs` (the facade) and the README's
//! migration table: every name a user can import from `graphlet_rw`
//! should be *used* — not just imported — below.

// Every facade re-export, by name. An unused import would be a warning,
// not a failure, so each one is exercised in the test bodies.
use graphlet_rw::{
    available_cores, baselines, core, datasets, exact, graph, graphlets, walks, AdaptiveReport,
    BatchStats, BurnInReport, ConfigError, Estimate, EstimatorConfig, Graph, GraphAccess,
    GraphletId, GxError, NodeId, Progress, RuleError, RunHandle, Runner, StoppingRule,
};

#[test]
fn estimation_entry_points_are_all_callable() {
    let g = graph::generators::classic::lollipop(5, 4);
    let cfg = EstimatorConfig::recommended(3);
    let rule = StoppingRule {
        target_rel_ci: 0.5,
        check_every: 500,
        max_steps: 4_000,
        batch_len: 64,
        min_batches: 4,
        ..Default::default()
    };

    // Fixed / adaptive budgets × one / many walkers × every run entry.
    let a = Runner::new(cfg.clone()).steps(2_000).seed(1).run(&g).unwrap();
    let b = Runner::new(cfg.clone()).steps(2_000).seed(1).walkers(2).run(&g).unwrap();
    let c = Runner::new(cfg.clone()).until(rule.clone()).seed(1).run_local(&g).unwrap();
    let d = Runner::new(cfg.clone()).until(rule.clone()).seed(1).walkers(2).run(&g).unwrap();
    let e = Runner::new(cfg.clone())
        .steps(2_000)
        .run_with_walk(
            &g,
            walks::SrwWalk::new(&g, 0, cfg.non_backtracking),
            walks::rng_from_seed(1),
        )
        .unwrap();
    let f = Runner::new(cfg.clone())
        .until(rule.clone())
        .run_with_walk(
            &g,
            walks::SrwWalk::new(&g, 0, cfg.non_backtracking),
            walks::rng_from_seed(1),
        )
        .unwrap();
    let per_core = Runner::new(cfg.clone()).steps(2_000).walkers(available_cores()).run(&g);
    assert_eq!(per_core.unwrap().steps, 2_000);
    for est in [&a, &b, &c, &d, &e, &f] {
        assert!(est.steps > 0 && est.valid_samples > 0);
    }

    // The runner front door: builder, handle, progress, typed errors.
    let runner = Runner::new(cfg.clone()).steps(2_000).seed(1).walkers(2);
    let est: Estimate = runner.run(&g).expect("valid chain");
    assert_eq!(est.raw_scores, b.raw_scores, "the same chain is the same estimate");
    let mut handle: RunHandle<'_, Graph> = runner.start(&g).expect("valid chain");
    let p: Progress = handle.advance(1_000);
    assert!(p.steps > 0 && !p.converged);
    assert_eq!(handle.finish().raw_scores, est.raw_scores);
    let err: GxError = Runner::new(cfg.clone()).run(&g).unwrap_err();
    assert_eq!(err, GxError::NoBudget);
    let err: ConfigError = EstimatorConfig { k: 9, ..cfg.clone() }.try_validate().unwrap_err();
    assert!(matches!(err, ConfigError::UnsupportedK { k: 9 }));
    let err: RuleError = StoppingRule::try_new(0.0, 1, 1).unwrap_err();
    assert!(matches!(err, RuleError::TargetNotPositive { .. }));

    // Burn-in measurement + report types.
    let report: BurnInReport = graphlet_rw::measure_burn_in(&g, &cfg, 1, 1_024, 128).unwrap();
    assert_eq!(report.batch_means.len(), 8);
    let adaptive: &AdaptiveReport = d.adaptive().expect("adaptive runs report");
    assert_eq!(adaptive.walkers, 2);
    let stats: &BatchStats = a.accuracy().expect("fixed runs carry stats");
    assert!(stats.batches() > 0);
}

#[test]
fn substrate_modules_are_reachable_through_the_facade() {
    // graph: storage, generators, access trait, ids.
    let g: Graph = graph::generators::classic::petersen();
    let n: NodeId = 0;
    assert_eq!(GraphAccess::degree(&g, n), 3);
    // graphlets: taxonomy + ids.
    let id = GraphletId::new(3, 1);
    assert_eq!(graphlets::num_graphlets(4), 6);
    assert_eq!(id.k, 3);
    // walks: seeded RNG + a walk.
    let mut rng = walks::rng_from_seed(7);
    let mut w = walks::SrwWalk::new(&g, 0, false);
    walks::StateWalk::step(&mut w, &mut rng);
    // core: the framework module path (α tables, theory, eval helpers).
    assert!(core::alpha_of(GraphletId::new(3, 1), 1) > 0);
    assert_eq!(core::alpha_table(3, 1).len(), 2);
    assert!(core::relationship_edge_count(&g, 1) > 0);
    // exact: ground truth.
    let counts = exact::exact_counts(&g, 3);
    assert_eq!(counts.counts[1], 0, "Petersen graph is triangle-free");
    // baselines: the paper's competitors.
    let wedge = baselines::wedge_sampling(&g, 500, 7);
    assert!(wedge.clustering_coefficient() >= 0.0);
    // datasets: synthetic registry + external loader.
    let ds = datasets::dataset("facebook-sim");
    assert!(ds.graph().num_nodes() > 0);
    let loaded = datasets::LoadedDataset::from_reader("t", "1000 2000\n2000 3000\n".as_bytes())
        .expect("parse");
    assert_eq!(loaded.graph.num_nodes(), 3);
    assert_eq!(loaded.original_id(0), 1000);
}

//! Thread-count invariance of the full route pipeline.
//!
//! The parallel front end (candidate fan-out, forest build, extraction
//! rasters) writes results into index-ordered slots and the training
//! reductions are chunk-pinned, so `route` must produce byte-identical
//! output at any worker count. This routes the golden-guide cases at 1,
//! 2, and 8 threads and asserts all three renderings match each other
//! *and* the committed golden files — the same bytes CI pins at 4
//! threads in `tests/golden.rs`.

use std::path::PathBuf;

use dgr::autodiff::parallel;
use dgr::core::{DgrConfig, DgrRouter};
use dgr::post::{assign_layers, AssignConfig, RouteGuide};
use dgr_oracle::{case_rng, gen_design, CaseSpec, CheckKind, EXEC_LOCK};

const GOLDEN_SEEDS: [u64; 2] = [11, 23];

fn guide_text(seed: u64) -> String {
    let spec = CaseSpec {
        num_layers: 3,
        ..CaseSpec::sample(CheckKind::PathCost, seed)
    };
    let design = gen_design(&spec, &mut case_rng(&spec));
    let cfg = DgrConfig {
        iterations: 60,
        seed,
        ..DgrConfig::default()
    };
    let solution = DgrRouter::new(cfg).route(&design).expect("routes");
    let assigned = assign_layers(&design, &solution, AssignConfig::default()).expect("≥ 2 layers");
    RouteGuide::from_assignment(&design, &assigned).to_text()
}

#[test]
fn route_output_is_byte_identical_across_thread_counts() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");

    let _guard = EXEC_LOCK.lock().unwrap();
    let mut per_thread: Vec<(usize, Vec<String>)> = Vec::new();
    for threads in [1, 2, 8] {
        parallel::set_num_threads(threads);
        let texts = GOLDEN_SEEDS.iter().map(|&s| guide_text(s)).collect();
        per_thread.push((threads, texts));
    }
    parallel::set_num_threads(0);
    drop(_guard);

    let (_, baseline) = &per_thread[0];
    for (threads, texts) in &per_thread[1..] {
        for (i, seed) in GOLDEN_SEEDS.iter().enumerate() {
            assert!(
                texts[i] == baseline[i],
                "seed {seed}: {threads}-thread guide diverged from 1-thread guide"
            );
        }
    }

    // The committed goldens were generated at 4 threads; matching them
    // proves 1/2/8 threads agree with 4 as well.
    for (i, seed) in GOLDEN_SEEDS.iter().enumerate() {
        let path = dir.join(format!("guide_seed{seed}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        assert!(
            baseline[i] == want,
            "seed {seed}: guide diverged from committed golden {}",
            path.display()
        );
    }
}

//! The three workloads, their inputs, and the router seed `--seed` sets.
//!
//! The router only ever sees what these functions produce: design text
//! (route workloads, and the `design_text` field of `dgrd` job specs).

use dgr_io::{catalog_case, write_design, IspdLikeGenerator};

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `ispd19_7m` catalog design routed repeatedly: 9k nets,
    /// 5 layers, hotspots, so maze refinement reroutes many nets.
    Congested,
    /// The `ispd18_test10` catalog design routed repeatedly: 4.5k nets,
    /// 9 layers, no hotspots, so the layer-assignment DP carries weight
    /// and refine does not.
    Uncongested9l,
    /// A closed loop of small jobs against an in-process `dgrd`.
    DgrdSmall,
}

impl Workload {
    /// Parses a `--workload` name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "congested" => Some(Workload::Congested),
            "uncongested_9l" => Some(Workload::Uncongested9l),
            "dgrd_small" => Some(Workload::DgrdSmall),
            _ => None,
        }
    }

    /// Catalog cases this workload's designs are generated from.
    pub fn shapes(self) -> &'static [&'static str] {
        match self {
            Workload::Congested => &["ispd19_7m"],
            Workload::Uncongested9l => &["ispd18_test10"],
            Workload::DgrdSmall => &["ispd18_test1", "ispd18_test2", "ispd18_test3"],
        }
    }

    /// Training iterations per route (or per job).
    pub fn iterations(self) -> usize {
        match self {
            Workload::Congested => 250,
            Workload::Uncongested9l => 500,
            Workload::DgrdSmall => 200,
        }
    }
}

/// The splitmix64 output function: a well-mixed 64-bit value from `z`.
pub fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `DgrConfig.seed` of every route and job of a run with workload seed
/// `seed`, kept below 2^53 so it survives a JSON number (`dgrd` job specs)
/// exactly.
pub fn route_seed(seed: u64) -> u64 {
    splitmix64(seed) >> 11
}

/// A generated input design.
pub struct GeneratedDesign {
    /// Catalog shape it was generated from.
    pub shape: &'static str,
    /// The design in the `dgr-io` text format.
    pub text: String,
}

/// Generates the workload's designs: each catalog case with its own
/// generator seed. The designs do not depend on the workload seed: across
/// generator seeds their route time and quality spread wider than a
/// regression bound can absorb (measurements in `README.md`, "Seeds").
pub fn generate(workload: Workload) -> Result<Vec<GeneratedDesign>, String> {
    workload
        .shapes()
        .iter()
        .map(|&shape| {
            let case = catalog_case(shape).ok_or_else(|| format!("no catalog case `{shape}`"))?;
            let design = IspdLikeGenerator::new(case.config)
                .generate()
                .map_err(|e| format!("generating {shape}: {e}"))?;
            Ok(GeneratedDesign {
                shape,
                text: write_design(&design),
            })
        })
        .collect()
}

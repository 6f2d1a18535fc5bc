//! The yardstick must never move: a fixed checksum for its seed, no
//! dependency on the program it measures, and exact normalisation.

use gradebench_ref::{normalise, RefKernel, REF_CYCLES, REF_NOMINAL_S, REF_SEED};

/// `RefKernel::new(REF_SEED).run(REF_CYCLES)`, pinned.
const PINNED_CHECKSUM: u64 = 0x1728dabdbb87f08d;

#[test]
fn checksum_is_fixed_for_its_seed() {
    assert_eq!(RefKernel::new(REF_SEED).run(REF_CYCLES), PINNED_CHECKSUM);
    assert_ne!(
        RefKernel::new(REF_SEED + 1).run(REF_CYCLES),
        PINNED_CHECKSUM
    );
}

#[test]
fn links_no_crate_at_all() {
    let manifest = include_str!("../Cargo.toml");
    let deps = manifest
        .split("[dependencies]")
        .nth(1)
        .expect("the manifest has a [dependencies] table");
    assert!(
        deps.trim().is_empty(),
        "the reference kernel must depend on nothing: {deps}"
    );
    assert!(
        !manifest.contains("seugrade"),
        "the reference kernel must not name a seugrade crate"
    );
}

#[test]
fn normalising_a_synthetic_interval() {
    // 2 s of host time next to a reference pass twice the nominal is
    // 1 ref-second; next to a nominal pass it stays 2 ref-seconds.
    assert!((normalise(2.0, 2.0 * REF_NOMINAL_S) - 1.0).abs() < 1e-12);
    assert!((normalise(2.0, REF_NOMINAL_S) - 2.0).abs() < 1e-12);
    assert!((normalise(0.3, 0.5 * REF_NOMINAL_S) - 0.6).abs() < 1e-12);
}

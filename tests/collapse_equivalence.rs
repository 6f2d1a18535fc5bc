//! Early collapse and horizon walks grade every registry circuit to the
//! independent oracle's verdicts (the oracle battery; see
//! `battery/mod.rs` for the axes).

mod battery;

use battery::{registry, Grid, COLLAPSES, POLICIES};

/// Both collapse modes grade every registry circuit to the oracle's
/// verdicts under `checkpoint:K` for a spread of `K` (1 puts every
/// cycle on a span edge) and at 1, 2, 4 and 8 worker threads.
#[test]
fn collapse_modes_agree_on_every_registry_circuit() {
    for fixture in registry() {
        let policies = Grid { collapses: &COLLAPSES, policies: &POLICIES, ..Grid::ONE };
        let threads = Grid { collapses: &COLLAPSES, threads: &[1, 4, 8], ..Grid::ONE };
        fixture.check_main(&policies.configs());
        fixture.check_main(&threads.configs());
    }
}

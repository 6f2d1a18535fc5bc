//! Early collapse — retire, jump and alias, the grader's only mode —
//! grades every registry circuit to the independent oracle's verdicts
//! (the oracle battery; see `battery/mod.rs` for the axes).

mod battery;

use battery::{registry, Grid, POLICIES};

/// Early collapse grades every registry circuit to the oracle's
/// verdicts under `checkpoint:K` for a spread of `K` (1 puts every
/// cycle on a span edge) and at 1, 4 and 8 worker threads. The name
/// dates from when a horizon walk was checked alongside it.
#[test]
fn collapse_modes_agree_on_every_registry_circuit() {
    let policies = Grid { policies: &POLICIES, ..Grid::ONE }.configs();
    let threads = Grid { threads: &[1, 4, 8], ..Grid::ONE }.configs();
    for fixture in registry() {
        fixture.check_main(&policies);
        fixture.check_main(&threads);
    }
}

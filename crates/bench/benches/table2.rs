//! Bench for Table 2: each `(program, analysis, heap)` cell as a
//! measurable benchmark. Uses small scales so the full matrix stays
//! fast; the `repro` binary runs the paper-scale version.

use bench::timing;
use bench::{HeapKind, Sensitivity};
use mahjong::MahjongConfig;
use pta::Budget;

fn main() {
    let budget = Budget::seconds(120);
    for name in ["luindex", "pmd"] {
        let prepared = bench::prepare(name, 1, &MahjongConfig::default());
        for s in Sensitivity::TABLE2 {
            for (heap, label) in [(HeapKind::AllocSite, ""), (HeapKind::Mahjong, "M-")] {
                timing::bench(&format!("table2/{label}{}/{name}", s.name()), || {
                    bench::run_configuration(&prepared, s, heap, budget)
                });
            }
        }
    }
}

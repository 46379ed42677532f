//! Bench for the design-choice ablations DESIGN.md calls out:
//! Condition 2 on/off, representative choice.

use bench::timing;
use mahjong::{MahjongConfig, Representative};

fn main() {
    let w = workloads::dacapo::workload("pmd", 2);
    let pre = pta::pre_analysis(&w.program).expect("fits budget");
    let fpg = mahjong::FieldPointsToGraph::from_analysis(&w.program, &pre, true);

    let configs: Vec<(&str, MahjongConfig)> = vec![
        ("default", MahjongConfig::default()),
        (
            "no-condition2",
            MahjongConfig {
                enforce_condition2: false,
                ..MahjongConfig::default()
            },
        ),
        (
            "repr-largest",
            MahjongConfig {
                representative: Representative::Largest,
                ..MahjongConfig::default()
            },
        ),
    ];
    for (label, config) in configs {
        timing::bench(&format!("ablations/merge/{label}"), || {
            mahjong::merge_equivalent_objects(&fpg, &config)
        });
    }
}

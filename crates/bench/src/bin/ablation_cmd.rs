//! Extension ablation (beyond the paper's Table 6): *which part of the
//! CMD constraint does the work?* Sweeps the Eq. 11 component knobs —
//! mean-term weight, constrained layer set, and highest moment order —
//! around the calibrated default. This is the experiment behind the
//! calibration notes in EXPERIMENTS.md.

use fedomd_bench::{seeded_cell, ExperimentRecord, HarnessOpts, Table};
use fedomd_core::FedOmdConfig;
use fedomd_data::DatasetName;
use fedomd_federated::Strategy;

const M: usize = 3;

fn main() {
    let opts = HarnessOpts::parse();
    let base = FedOmdConfig::paper();
    let variants: Vec<(String, FedOmdConfig)> = vec![
        (
            "no CMD at all".into(),
            FedOmdConfig {
                use_cmd: false,
                ..base
            },
        ),
        (
            "mean_scale = 0 (shape only)".into(),
            FedOmdConfig {
                cmd_mean_scale: 0.0,
                ..base
            },
        ),
        ("mean_scale = 0.1 (default)".into(), base),
        (
            "mean_scale = 1 (strict Eq. 11)".into(),
            FedOmdConfig::strict_paper(),
        ),
        (
            "first hidden layer only".into(),
            FedOmdConfig {
                cmd_first_layer_only: true,
                ..base
            },
        ),
        (
            "moments up to order 2".into(),
            FedOmdConfig {
                max_moment: 2,
                ..base
            },
        ),
        (
            "moments up to order 3".into(),
            FedOmdConfig {
                max_moment: 3,
                ..base
            },
        ),
        ("moments up to order 5 (default)".into(), base),
        ("β = 1".into(), FedOmdConfig { beta: 1.0, ..base }),
        (
            "β = 100".into(),
            FedOmdConfig {
                beta: 100.0,
                ..base
            },
        ),
    ];

    let mut record = ExperimentRecord::new("ablation_cmd", opts.scale.name(), &opts.seeds);
    println!("CMD component ablation, mean accuracy ±std (%), M={M}\n");
    for ds_name in [DatasetName::Cora, DatasetName::Computer] {
        let mut table = Table::new(&["Variant", "accuracy"]);
        for (label, cfg) in &variants {
            let s = seeded_cell(&Strategy::FedOmd(*cfg), ds_name, M, 1.0, &opts);
            record.push(label, &format!("{ds_name:?}"), s.mean, s.std);
            table.row(vec![label.clone(), s.paper_cell()]);
            eprintln!("  [{ds_name:?}] {label}: {}", s.paper_cell());
        }
        println!("## {ds_name:?}\n{}", table.render());
    }
    fedomd_bench::emit(&record, &opts);
}

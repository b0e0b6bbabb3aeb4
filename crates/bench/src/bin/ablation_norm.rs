//! Ablation: block-normalization scheme (paper §3.1 cites Dalal's finding
//! that normalization choice matters; L2-Hys is the default).
//!
//! Trains and evaluates the base-scale classifier under each of the four
//! schemes and reports accuracy / AUC / EER.
//!
//! Run with `RTPED_QUICK=1` for a fast smoke version.

use rtped_bench::{Experiment, ExperimentConfig};
use rtped_eval::report::{float, Table};
use rtped_eval::RocCurve;
use rtped_hog::block::NormKind;
use rtped_hog::params::HogParams;

fn main() {
    let config = ExperimentConfig::from_env();
    let schemes: [(&str, NormKind); 4] = [
        ("L1", NormKind::L1 { epsilon: 1e-2 }),
        ("L1-sqrt", NormKind::L1Sqrt { epsilon: 1e-2 }),
        ("L2", NormKind::L2 { epsilon: 1e-2 }),
        ("L2-Hys (paper)", NormKind::default()),
    ];

    let mut table = Table::new(
        "Normalization ablation: base-scale accuracy / AUC / EER per scheme",
        &["Scheme", "Accuracy %", "AUC", "EER"],
    );

    let mut experiment = Experiment::prepare(&config);
    for (name, norm) in schemes {
        eprintln!("training with {name} ...");
        let params = HogParams::builder()
            .norm(norm)
            .build()
            .expect("valid parameters");
        experiment = experiment.retrained(params);
        let scored = experiment.score_base();
        let cm = Experiment::confusion(&scored);
        let roc = RocCurve::from_scores(&scored);
        table.row_owned(vec![
            name.to_string(),
            float(cm.accuracy() * 100.0, 4),
            float(roc.auc(), 5),
            float(roc.eer(), 5),
        ]);
    }

    println!("{}", table.render());
    println!(
        "Dalal & Triggs (cited as the paper's §3.1 basis): L2-Hys, L2 and L1-sqrt\n\
         perform comparably; plain L1 is markedly worse."
    );
}

//! Markdown rendering of harness results (`repro_table2 --md FILE`).

use crate::harness::CellResult;

/// Render cell results as a GitHub-flavoured markdown table in Table 2's
/// layout: one row per (dataset, setting, config).
pub fn markdown_table(cells: &[CellResult]) -> String {
    let mut out = String::from(
        "| Dataset | \\|A\\| | Records | H0 | η=τ | t | Δcore | Δcosts | acc |\n\
         |---|---:|---:|---|---:|---:|---:|---:|---:|\n",
    );
    for c in cells {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {:.1} | {:.2}s | {:.2} | {:.2} | {:.2} |\n",
            c.dataset,
            c.attrs,
            c.records,
            c.config,
            c.eta,
            c.t_secs,
            c.delta_core,
            c.delta_costs,
            c.acc
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows() {
        let cells = vec![CellResult {
            dataset: "iris".into(),
            attrs: 6,
            records: 150,
            config: "Hid",
            eta: 0.3,
            tau: 0.3,
            runs: 3,
            t_secs: 0.02,
            delta_core: 1.0,
            delta_costs: 0.97,
            acc: 1.0,
        }];
        let md = markdown_table(&cells);
        assert!(md.contains("| iris | 6 | 150 | Hid | 0.3 | 0.02s | 1.00 | 0.97 | 1.00 |"));
    }
}

//! Reference outputs for the seed recorded in `expected.json`: the FNV-1a
//! hash of the `figures` exhibit text and the cycles and CPI bits of
//! every `grid_1m` cell. Other seeds rely on the cross-checks each
//! workload makes (repeat passes, traced re-evaluation, in-process runs
//! of sampled served cells).

use crate::json::{array_field, compact, str_field, u64_field};

const EXPECTED: &str = include_str!("../expected.json");

/// `expected.json` in compact form when it was recorded for this seed
/// and `<prefix>_len`.
fn recorded(prefix: &str, seed: u64, len: usize) -> Option<String> {
    let doc = compact(EXPECTED);
    let matches = u64_field(&doc, "seed") == Some(seed)
        && u64_field(&doc, &format!("{prefix}_len")) == Some(len as u64);
    matches.then_some(doc)
}

pub fn figures_fnv1a(seed: u64, len: usize) -> Result<Option<u64>, String> {
    recorded("figures", seed, len)
        .map(|doc| {
            u64_field(&doc, "figures_fnv1a")
                .ok_or_else(|| "expected.json: figures_fnv1a is not an integer".to_string())
        })
        .transpose()
}

/// `(bench/layout/policy, cycles, cpi_bits)` per cell, in grid order.
pub type GridCells = Vec<(String, u64, u64)>;

pub fn grid_cells(seed: u64, len: usize) -> Result<Option<GridCells>, String> {
    let Some(doc) = recorded("grid", seed, len) else {
        return Ok(None);
    };
    let cells = array_field(&doc, "grid_cells").ok_or("expected.json: grid_cells is not a list")?;
    cells
        .iter()
        .map(|c| {
            let label = str_field(c, "cell");
            let cycles = u64_field(c, "cycles");
            let cpi_bits = u64_field(c, "cpi_bits");
            match (label, cycles, cpi_bits) {
                (Some(l), Some(cy), Some(b)) => Ok((l, cy, b)),
                _ => Err(format!("expected.json: malformed grid cell {c}")),
            }
        })
        .collect::<Result<_, _>>()
        .map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_recorded_seed_reads_back_whole() {
        let cells = grid_cells(1, 1_000_000)
            .unwrap()
            .expect("seed 1 is recorded");
        assert_eq!(cells.len(), 18);
        assert_eq!(cells[0].0, "gcc/2x4w/focused");
        assert!(figures_fnv1a(1, 5_000).unwrap().is_some());
        assert_eq!(grid_cells(2, 1_000_000).unwrap(), None);
        assert_eq!(figures_fnv1a(1, 4_000).unwrap(), None);
    }
}

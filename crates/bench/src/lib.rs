//! Shared plumbing for the reproduction harnesses — experiment
//! configurations matching the paper's setups and table formatting — and
//! the one writer of the committed `BENCH_*.json` files: a bench binary
//! builds typed [`Row`]s, asserts its gates over them, then [`render`]s.

use dwt::{Boundary, FilterBank, Matrix};
use dwt_mimd::{GuardOrdering, MimdDwtConfig};
use imagery::{landsat_scene, SceneParams};
use paragon::{MachineSpec, Mapping, SpmdConfig};

/// The paper's three experiment configurations: (filter size, levels).
pub const PAPER_CONFIGS: [(usize, usize); 3] = [(8, 1), (4, 2), (2, 4)];

/// Label such as `F8/L1`.
pub fn config_label(filter: usize, levels: usize) -> String {
    format!("F{filter}/L{levels}")
}

/// Whether the harness should run the full paper-sized experiments.
/// Reduced sizes keep a full `cargo bench` pass quick; set
/// `REPRO_FULL=1` for the paper's exact sizes.
pub fn full_size() -> bool {
    std::env::var("REPRO_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The 512×512 Landsat-TM stand-in scene of the paper's experiments
/// (or a 256×256 reduction when not in full mode).
pub fn paper_image() -> Matrix {
    let n = if full_size() { 512 } else { 256 };
    landsat_scene(n, n, SceneParams::default())
}

/// SPMD config on the simulated Paragon.
pub fn paragon_cfg(nranks: usize, mapping: Mapping) -> SpmdConfig {
    SpmdConfig::new(MachineSpec::paragon(), nranks, mapping)
}

/// SPMD config on the simulated T3D.
pub fn t3d_cfg(nranks: usize) -> SpmdConfig {
    SpmdConfig::new(MachineSpec::t3d(), nranks, Mapping::RowMajor)
}

/// The tuned distributed-DWT configuration (snake + simultaneous).
pub fn tuned_dwt(filter: usize, levels: usize) -> MimdDwtConfig {
    MimdDwtConfig::tuned(
        FilterBank::daubechies(filter).expect("paper filter sizes exist"),
        levels,
    )
}

/// The naive distributed-DWT configuration (row-major placement is
/// chosen by the caller; this sets the chain-ordered blocking exchange).
pub fn naive_dwt(filter: usize, levels: usize) -> MimdDwtConfig {
    MimdDwtConfig {
        ordering: GuardOrdering::ChainOrdered,
        ..tuned_dwt(filter, levels)
    }
}

/// Boundary mode used throughout the reproduction.
pub const MODE: Boundary = Boundary::Periodic;

/// Print a header banner for a harness section.
pub fn banner(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Format a speedup series as `P=1: 1.00x  P=2: 1.9x ...`.
pub fn speedup_row(times: &[(usize, f64)]) -> String {
    let t1 = times
        .iter()
        .find(|(p, _)| *p == 1)
        .map(|&(_, t)| t)
        .unwrap_or(times[0].1);
    times
        .iter()
        .map(|(p, t)| format!("P={p:<2} T={t:8.4}s S={:5.2}x", t1 / t))
        .collect::<Vec<_>>()
        .join("  |  ")
}

/// A JSON value as the `BENCH_*.json` documents spell it.
pub enum Val {
    Int(u64),
    /// `{}`-displayed float: `5000`, `0.25`, `1.1`.
    Num(f64),
    /// Fixed-precision float: value, decimals.
    Fix(f64, usize),
    Str(String),
    Null,
    /// A list on one line: `[0, 2]`, `["a", "b"]`.
    List(Vec<Val>),
    /// A header object, on one line.
    Obj(Row),
    /// A section: one object per line.
    Rows(Vec<Row>),
}

impl Val {
    /// A count or measure as itself, a list as its length.
    pub fn magnitude(&self) -> f64 {
        match self {
            Val::Int(v) => *v as f64,
            Val::Num(v) | Val::Fix(v, _) => *v,
            Val::List(v) => v.len() as f64,
            Val::Str(_) | Val::Null | Val::Obj(_) | Val::Rows(_) => panic!("not a magnitude"),
        }
    }
}

/// Ordered `(key, value)` columns — a row, or the document itself.
pub type Row = Vec<(&'static str, Val)>;

impl From<u64> for Val {
    fn from(v: u64) -> Val {
        Val::Int(v)
    }
}

impl From<usize> for Val {
    fn from(v: usize) -> Val {
        Val::Int(v as u64)
    }
}

impl From<&str> for Val {
    fn from(v: &str) -> Val {
        Val::Str(v.into())
    }
}

impl<T: Into<Val>> FromIterator<T> for Val {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Val {
        Val::List(items.into_iter().map(Into::into).collect())
    }
}

/// Comma-join `items`, one per line at `indent` — the one place a JSON
/// list is laid out.
fn lines(indent: &str, items: impl Iterator<Item = String>) -> String {
    let items: Vec<String> = items.collect();
    format!("\n{indent}{}\n", items.join(&format!(",\n{indent}")))
}

fn entry((key, val): &(&'static str, Val)) -> String {
    format!("\"{key}\": {val}")
}

/// One row as a one-line JSON object.
pub fn render_row(row: &Row) -> String {
    let cols: Vec<String> = row.iter().map(entry).collect();
    format!("{{{}}}", cols.join(", "))
}

/// The whole document: one top-level key per line.
pub fn render(doc: &Row) -> String {
    format!("{{{}}}\n", lines("  ", doc.iter().map(entry)))
}

impl std::fmt::Display for Val {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Val::Int(v) => write!(f, "{v}"),
            Val::Num(v) => write!(f, "{v}"),
            Val::Fix(v, decimals) => write!(f, "{v:.decimals$}"),
            Val::Str(s) => write!(f, "\"{s}\""),
            Val::Null => f.write_str("null"),
            Val::List(v) => {
                let items: Vec<String> = v.iter().map(Val::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Val::Obj(row) => f.write_str(&render_row(row)),
            Val::Rows(rows) => write!(f, "[{}  ]", lines("    ", rows.iter().map(render_row))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_the_three_from_the_evaluation() {
        assert_eq!(PAPER_CONFIGS.len(), 3);
        assert_eq!(config_label(8, 1), "F8/L1");
    }

    #[test]
    fn image_matches_requested_size() {
        let img = paper_image();
        assert!(img.rows() == 256 || img.rows() == 512);
        assert_eq!(img.rows(), img.cols());
    }

    #[test]
    fn speedup_row_normalizes_to_p1() {
        let row = speedup_row(&[(1, 4.0), (2, 2.0)]);
        assert!(row.contains("S= 1.00x"));
        assert!(row.contains("S= 2.00x"));
    }
}

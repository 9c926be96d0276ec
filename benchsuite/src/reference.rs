//! Exact reference counts for every (benchmark, predictor) cell.
//!
//! The simulated statistics are deterministic, so every cell a workload
//! produces is compared for exact equality with a reference: the
//! conditional-branch and misprediction counts a serial
//! [`ev8_sim::simulate`] run gives on the same generated trace. The
//! default seed's references are stored with the benchmark
//! (`references/seed-0.txt`); any other seed's are computed once with
//! the serial path and cached under the work directory. Every cell is
//! keyed by scale, benchmark and predictor, and carries the
//! [`ev8_workloads::program::ProgramSpec::fingerprint`] of the scaled
//! spec it was computed from, so a cell from another generator never
//! passes for the current one.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use ev8_workloads::program::ProgramSpec;

use crate::suite::{par_map, scaled_fingerprint, Pred};

/// The references stored with the benchmark, for the default seed.
pub const STORED_DEFAULT: &str = include_str!("../references/seed-0.txt");

/// Where `--write-references` puts the default seed's references.
pub fn stored_default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("references/seed-0.txt")
}

/// The header line every reference file starts with.
const HEADER: &str = "# ev8-benchsuite references v1: scale_ppm benchmark predictor fingerprint conditional mispredictions";

/// A cell's identity.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// Trace scale in parts per million of the full-length spec.
    pub scale_ppm: u64,
    /// Benchmark name.
    pub bench: String,
    /// Predictor id (see [`Pred::id`]), or `sampled-<id>` for a
    /// sampled estimate.
    pub pred: String,
}

impl Key {
    /// The key of `pred`'s cell on `bench` at `scale`.
    pub fn new(scale: f64, bench: &str, pred: &str) -> Key {
        Key {
            scale_ppm: scale_ppm(scale),
            bench: bench.to_owned(),
            pred: pred.to_owned(),
        }
    }
}

/// `scale` in parts per million.
pub fn scale_ppm(scale: f64) -> u64 {
    (scale * 1e6).round() as u64
}

/// A cell's reference counts and the fingerprint they belong to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell {
    /// Fingerprint of the scaled spec the counts were computed from.
    pub fingerprint: u64,
    /// Conditional branches predicted.
    pub conditional: u64,
    /// Mispredictions.
    pub mispredictions: u64,
}

/// A set of reference cells.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RefTable {
    cells: BTreeMap<Key, Cell>,
}

/// A cell the current run needs: `pred` on `spec` at `scale`.
#[derive(Clone, Debug)]
pub struct Need {
    /// The (seed-mixed, unscaled) spec.
    pub spec: ProgramSpec,
    /// Trace scale.
    pub scale: f64,
    /// Predictor.
    pub pred: Pred,
}

impl RefTable {
    /// Parses a reference file.
    ///
    /// # Errors
    ///
    /// A message naming the first malformed line.
    pub fn parse(text: &str) -> Result<RefTable, String> {
        let mut table = RefTable::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: malformed: {line}", n + 1);
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 6 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            let fingerprint = u64::from_str_radix(f[3], 16).map_err(|_| bad())?;
            table.cells.insert(
                Key {
                    scale_ppm: num(f[0])?,
                    bench: f[1].to_owned(),
                    pred: f[2].to_owned(),
                },
                Cell {
                    fingerprint,
                    conditional: num(f[4])?,
                    mispredictions: num(f[5])?,
                },
            );
        }
        Ok(table)
    }

    /// Renders the table in the format [`RefTable::parse`] reads.
    pub fn render(&self) -> String {
        let mut out = format!("{HEADER}\n");
        for (k, c) in &self.cells {
            out.push_str(&format!(
                "{} {} {} {:016x} {} {}\n",
                k.scale_ppm, k.bench, k.pred, c.fingerprint, c.conditional, c.mispredictions
            ));
        }
        out
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the table holds no cell.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Adds or replaces a cell.
    pub fn insert(&mut self, key: Key, cell: Cell) {
        self.cells.insert(key, cell);
    }

    /// Adds every cell of `other`, replacing cells with the same key.
    pub fn merge(&mut self, other: RefTable) {
        self.cells.extend(other.cells);
    }

    /// The reference for `key`, if present and computed from a spec with
    /// `fingerprint`.
    pub fn get(&self, key: &Key, fingerprint: u64) -> Option<Cell> {
        self.cells
            .get(key)
            .filter(|c| c.fingerprint == fingerprint)
            .copied()
    }

    /// True when the observed counts equal the reference exactly. A
    /// missing or stale reference is a failure, never a pass.
    pub fn matches(&self, key: &Key, fingerprint: u64, conditional: u64, misp: u64) -> bool {
        self.get(key, fingerprint)
            .is_some_and(|c| c.conditional == conditional && c.mispredictions == misp)
    }

    /// Computes every needed cell that is missing or stale with the
    /// serial [`ev8_sim::simulate`] path, one generated trace per
    /// (scale, benchmark), on up to `workers` threads. Returns how many
    /// cells it computed.
    pub fn ensure(&mut self, needs: &[Need], workers: usize) -> usize {
        let mut groups: BTreeMap<(u64, String), (ProgramSpec, f64, Vec<Pred>)> = BTreeMap::new();
        for need in needs {
            let fp = scaled_fingerprint(&need.spec, need.scale);
            let key = Key::new(need.scale, &need.spec.name, need.pred.id());
            if self.get(&key, fp).is_some() {
                continue;
            }
            let group = groups
                .entry((key.scale_ppm, need.spec.name.clone()))
                .or_insert_with(|| (need.spec.clone(), need.scale, Vec::new()));
            if !group.2.contains(&need.pred) {
                group.2.push(need.pred);
            }
        }
        let groups: Vec<(ProgramSpec, f64, Vec<Pred>)> = groups.into_values().collect();
        let computed = par_map(&groups, workers, |(spec, scale, preds)| {
            let trace = spec.generate_scaled(*scale);
            let fingerprint = scaled_fingerprint(spec, *scale);
            preds
                .iter()
                .map(|p| {
                    let r = p.simulate_serial(&trace);
                    (
                        Key::new(*scale, &spec.name, p.id()),
                        Cell {
                            fingerprint,
                            conditional: r.conditional_branches,
                            mispredictions: r.mispredictions,
                        },
                    )
                })
                .collect::<Vec<_>>()
        });
        let mut n = 0;
        for (key, cell) in computed.into_iter().flatten() {
            self.insert(key, cell);
            n += 1;
        }
        n
    }
}

/// Loads the references for `seed`: the stored file for the default
/// seed, merged with the work directory's cache for this seed, then
/// completes every missing cell of `needs` with the serial path and
/// rewrites the cache when it computed any. Returns the table and a
/// short description of where its cells came from.
///
/// # Errors
///
/// A message when a reference file is malformed or the cache cannot be
/// written.
pub fn load(
    seed: u64,
    work_dir: &Path,
    needs: &[Need],
    workers: usize,
) -> Result<(RefTable, String), String> {
    let mut table = if seed == 0 {
        RefTable::parse(STORED_DEFAULT)?
    } else {
        RefTable::default()
    };
    let cache = work_dir.join("refs").join(format!("seed-{seed}.txt"));
    let cached = match fs::read_to_string(&cache) {
        Ok(text) => RefTable::parse(&text)?,
        Err(_) => RefTable::default(),
    };
    let from_cache = !cached.is_empty();
    table.merge(cached);
    let computed = table.ensure(needs, workers);
    if computed > 0 {
        let dir = cache.parent().expect("cache path has a parent");
        fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        fs::write(&cache, table.render()).map_err(|e| format!("{}: {e}", cache.display()))?;
    }
    let source = match (seed == 0, from_cache, computed) {
        (true, _, 0) => "stored".to_owned(),
        (_, true, 0) => "cached".to_owned(),
        (_, _, n) => format!("computed {n} cells with the serial path"),
    };
    Ok((table, source))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ev8_workloads::spec95;

    fn sample() -> RefTable {
        let mut t = RefTable::default();
        t.insert(
            Key::new(0.02, "gcc", "ev8"),
            Cell {
                fingerprint: 0xdead_beef,
                conditional: 320_000,
                mispredictions: 12_345,
            },
        );
        t.insert(
            Key::new(0.002, "li", "gshare"),
            Cell {
                fingerprint: 7,
                conditional: 1,
                mispredictions: 0,
            },
        );
        t
    }

    #[test]
    fn render_parse_round_trip() {
        let t = sample();
        let text = t.render();
        assert!(text.starts_with(HEADER));
        assert_eq!(RefTable::parse(&text).unwrap(), t);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(RefTable::parse("20000 gcc ev8 zz 1 2").is_err());
        assert!(RefTable::parse("20000 gcc ev8 ff 1").is_err());
    }

    #[test]
    fn mismatches_and_missing_cells_count_as_failures() {
        let t = sample();
        let key = Key::new(0.02, "gcc", "ev8");
        assert!(t.matches(&key, 0xdead_beef, 320_000, 12_345));
        assert!(!t.matches(&key, 0xdead_beef, 320_000, 12_346));
        assert!(!t.matches(&key, 0xdead_beef, 320_001, 12_345));
        // A reference computed from another spec is stale.
        assert!(!t.matches(&key, 0xdead_bee0, 320_000, 12_345));
        assert!(!t.matches(&Key::new(0.02, "go", "ev8"), 0xdead_beef, 320_000, 12_345));
    }

    #[test]
    fn ensure_computes_with_the_serial_path_and_only_once() {
        let spec = spec95::benchmark("compress").unwrap();
        let needs = vec![
            Need {
                spec: spec.clone(),
                scale: 0.0005,
                pred: Pred::Gshare,
            },
            Need {
                spec: spec.clone(),
                scale: 0.0005,
                pred: Pred::Tage,
            },
        ];
        let mut t = RefTable::default();
        assert_eq!(t.ensure(&needs, 2), 2);
        assert_eq!(t.ensure(&needs, 2), 0);
        let trace = spec.generate_scaled(0.0005);
        let direct = Pred::Gshare.simulate_serial(&trace);
        let fp = scaled_fingerprint(&spec, 0.0005);
        assert!(t.matches(
            &Key::new(0.0005, "compress", "gshare"),
            fp,
            direct.conditional_branches,
            direct.mispredictions
        ));
        let reparsed = RefTable::parse(&t.render()).unwrap();
        assert_eq!(reparsed, t);
    }

    #[test]
    fn stored_default_references_parse() {
        RefTable::parse(STORED_DEFAULT).unwrap();
    }
}

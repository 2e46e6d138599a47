//! `ppm-e2e compare A B`: two result sets against the bounds of
//! `BENCHMARK.json`, one row per workload and end-to-end metric.
//!
//! A result set is a directory holding `result_<workload>.json` files,
//! directly or one level down (one sub-directory per run). Each file is
//! one sample of each metric.

use std::path::Path;

use crate::catalogue::{Better, END_TO_END};
use crate::json::Json;
use crate::stats::{summarize, Summary};
use crate::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's samples of one metric.
#[derive(Debug, Clone)]
pub struct Side {
    pub values: Vec<f64>,
    pub summary: Summary,
}

impl Side {
    /// From the value of each run; a single run brings the quartiles of
    /// its own per-trial samples, so one run against one run still has a
    /// spread to hold against the bound.
    pub fn new(values: Vec<f64>, own_quartiles: Option<(f64, f64)>) -> Side {
        let mut summary = summarize(&values);
        if let (1, Some((q1, q3))) = (values.len(), own_quartiles) {
            summary.q1 = q1;
            summary.q3 = q3;
        }
        Side { values, summary }
    }
}

/// The rule of the choosing-metrics guide: `b` is worse (better) when its
/// median moved by more than `bound` of `a`'s; when either side's spread
/// is wider than the bound the pair is unresolved, unless every run of
/// `b` reads better than every run of `a`.
pub fn verdict(a: &Side, b: &Side, better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (a.summary.median, b.summary.median);
    if ma == 0.0 {
        return if mb == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    // Positive = worse, as a share of a's median.
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    if a.summary.spread().max(b.summary.spread()) > bound {
        let clean_win = a.values.iter().all(|x| {
            b.values.iter().all(|y| match better {
                Better::Lower => y < x,
                Better::Higher => y > x,
            })
        });
        return if clean_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Every `result_<workload>.json` in `dir` and its sub-directories.
fn result_files(dir: &Path, workload: Workload) -> Vec<Json> {
    let name = format!("result_{}.json", workload.name());
    let mut dirs = vec![dir.to_path_buf()];
    dirs.extend(
        std::fs::read_dir(dir)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir()),
    );
    dirs.sort();
    dirs.iter()
        .filter_map(|d| std::fs::read_to_string(d.join(&name)).ok())
        .filter_map(|text| Json::parse(&text).ok())
        .collect()
}

fn side(files: &[Json], metric: &str) -> Side {
    let entry = |f: &Json| f.get("metrics").and_then(|m| m.get(metric)).cloned();
    let values: Vec<f64> = files
        .iter()
        .filter_map(|f| entry(f)?.get("value")?.as_f64())
        .collect();
    let own = files
        .first()
        .and_then(entry)
        .and_then(|e| Some((e.get("q1")?.as_f64()?, e.get("q3")?.as_f64()?)));
    Side::new(values, own)
}

fn failed_share(files: &[Json]) -> f64 {
    let sum = |key: &str| files.iter().map(|f| f.num(key)).sum::<f64>();
    let attempted = sum("attempted");
    if attempted > 0.0 {
        sum("failed") / attempted
    } else {
        1.0
    }
}

/// The bound of each end-to-end metric, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let spec = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    spec.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| format!("{path}: malformed end_to_end entry"))
}

pub fn run(dir_a: &Path, dir_b: &Path) -> i32 {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ppm-e2e compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<20} {:>14} {:>12} {:>14} {:>12} {:>8}  verdict",
        "workload", "metric", "median A", "IQR A", "median B", "IQR B", "bound"
    );
    let mut regressed = false;
    let mut compared = 0;
    for workload in Workload::ALL {
        let (fa, fb) = (result_files(dir_a, workload), result_files(dir_b, workload));
        if fa.is_empty() || fb.is_empty() {
            continue;
        }
        compared += 1;
        for m in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == m.name)
                .map_or(0.05, |(_, b)| *b);
            let (a, b) = (side(&fa, m.name), side(&fb, m.name));
            let v = verdict(&a, &b, m.better, bound);
            regressed |= v == Verdict::Worse;
            println!(
                "{:<14} {:<20} {:>14.6} {:>12.6} {:>14.6} {:>12.6} {:>7.0}%  {}",
                workload.name(),
                m.name,
                a.summary.median,
                a.summary.iqr(),
                b.summary.median,
                b.summary.iqr(),
                bound * 100.0,
                v.as_str()
            );
        }
        let (sa, sb) = (failed_share(&fa), failed_share(&fb));
        let more_failures = sb > sa;
        regressed |= more_failures;
        println!(
            "{:<14} {:<20} {:>14.6} {:>12} {:>14.6} {:>12} {:>8}  {}",
            workload.name(),
            "failed_share",
            sa,
            "",
            sb,
            "",
            "",
            if more_failures { "worse" } else { "same" }
        );
    }
    if compared == 0 {
        eprintln!("ppm-e2e compare: the two directories share no result_<workload>.json");
        return 2;
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn many(values: &[f64]) -> Side {
        Side::new(values.to_vec(), None)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let a = many(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = many(&[103.0, 104.0, 102.0, 103.5, 102.5]);
        let up = many(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        assert_eq!(verdict(&a, &same, Better::Lower, 0.05), Verdict::Same);
        assert_eq!(verdict(&a, &up, Better::Lower, 0.05), Verdict::Worse);
        assert_eq!(verdict(&a, &up, Better::Higher, 0.05), Verdict::Better);
        assert_eq!(verdict(&up, &a, Better::Higher, 0.05), Verdict::Worse);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let noisy = many(&[100.0, 140.0, 80.0, 120.0, 90.0]);
        let also = many(&[105.0, 150.0, 85.0, 125.0, 95.0]);
        let far = many(&[10.0, 14.0, 8.0, 12.0, 9.0]);
        assert_eq!(
            verdict(&noisy, &also, Better::Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&noisy, &far, Better::Lower, 0.05), Verdict::Better);
        assert_eq!(
            verdict(&noisy, &far, Better::Higher, 0.05),
            Verdict::Unresolved
        );
    }

    #[test]
    fn a_single_run_brings_its_own_quartiles() {
        let a = Side::new(vec![100.0], Some((99.0, 101.0)));
        let b = Side::new(vec![102.0], Some((80.0, 130.0)));
        assert_eq!(a.summary.spread(), 0.02);
        assert_eq!(verdict(&a, &b, Better::Lower, 0.05), Verdict::Unresolved);
        let zero = Side::new(vec![0.0], None);
        assert_eq!(verdict(&zero, &zero, Better::Lower, 0.05), Verdict::Same);
    }

    /// What `run` writes is what `compare` reads: value, unit, quartiles.
    #[test]
    fn result_file_round_trips_into_a_side() {
        let file = Json::obj([
            ("attempted", Json::Num(20.0)),
            ("failed", Json::Num(1.0)),
            (
                "metrics",
                Json::obj([(
                    "items_per_s",
                    Json::obj([
                        ("value", Json::Num(283_391.527_301)),
                        ("unit", Json::from("1/s")),
                        ("q1", Json::Num(280_000.25)),
                        ("q3", Json::Num(290_000.75)),
                        ("n", Json::Num(8.0)),
                    ]),
                )]),
            ),
        ]);
        let back = Json::parse(&file.to_string()).expect("writer output parses");
        let s = side(std::slice::from_ref(&back), "items_per_s");
        assert_eq!(s.values, vec![283_391.527_301]);
        assert_eq!((s.summary.q1, s.summary.q3), (280_000.25, 290_000.75));
        assert_eq!(failed_share(&[back.clone(), back]), 0.05);
        assert!(side(&[], "items_per_s").values.is_empty());
    }
}
